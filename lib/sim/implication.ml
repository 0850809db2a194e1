module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Req = Pdf_values.Req
module Circuit = Pdf_circuit.Circuit
module Gate = Pdf_circuit.Gate
module Metrics = Pdf_obs.Metrics

let m_gate_visits = Metrics.counter "implication.gate_visits"

type conflict = { net : int; component : int }

type outcome =
  | Consistent of Triple.t array
  | Conflict of { net : int; component : int }

exception Stop of int * int (* net, component *)

type t = {
  circuit : Circuit.t;
  nets : int;
  gates : int;
  layers : Bit.t array array; (* layers.(k) for component k+1 *)
  trail : int array;
      (* every X -> definite write since the last reset, as
         [(component - 1) * nets + net]; a net is written at most once
         per layer, so [3 * nets] entries suffice *)
  mutable trail_len : int;
  stack : int array;
      (* LIFO worklist of [(component - 1) * gates + gate]; [queued]
         keeps each entry on it at most once *)
  mutable sp : int;
  queued : bool array;
  mutable active : int; (* the entry being implied, or -1 *)
  mutable failed : bool;
  mutable visits : int;
}

let create c =
  let nets = Circuit.num_nets c and gates = Circuit.num_gates c in
  {
    circuit = c;
    nets;
    gates;
    layers = Array.init 3 (fun _ -> Array.make nets Bit.X);
    trail = Array.make (3 * nets) 0;
    trail_len = 0;
    stack = Array.make (3 * gates) 0;
    sp = 0;
    queued = Array.make (3 * gates) false;
    active = -1;
    failed = false;
    visits = 0;
  }

let push t ~component gate =
  let key = ((component - 1) * t.gates) + gate in
  if not t.queued.(key) then begin
    t.queued.(key) <- true;
    t.stack.(t.sp) <- key;
    t.sp <- t.sp + 1
  end

(* Pin [net] on one layer.  A new definite value queues, on that layer,
   the gate driving [net] and every gate reading it, then applies the
   two coupling rules on [net] at once. *)
let rec assign t ~component ~net value =
  match value with
  | Bit.X -> ()
  | Bit.Zero | Bit.One -> (
    let layer = t.layers.(component - 1) in
    match layer.(net) with
    | Bit.X ->
      layer.(net) <- value;
      t.trail.(t.trail_len) <- ((component - 1) * t.nets) + net;
      t.trail_len <- t.trail_len + 1;
      let c = t.circuit in
      if net >= c.Circuit.num_pis then
        push t ~component (net - c.Circuit.num_pis);
      let fanouts = c.Circuit.fanouts.(net) in
      for i = 0 to Array.length fanouts - 1 do
        push t ~component (fst fanouts.(i))
      done;
      couple t ~component ~net value
    | old -> if not (Bit.equal old value) then raise (Stop (net, component)))

(* A definite intermediate value forces the same end values on any net;
   equal definite end values force the intermediate value on a PI (a
   stable input cannot glitch). *)
and couple t ~component ~net value =
  if component = 2 then begin
    assign t ~component:1 ~net value;
    assign t ~component:3 ~net value
  end
  else if Circuit.is_pi t.circuit net then
    let other = t.layers.(if component = 1 then 2 else 0).(net) in
    if Bit.equal other value then assign t ~component:2 ~net value

(* Forward + backward rules for one gate on one layer.  One visit leaves
   the gate locally closed: the backward rules run after the forward
   rule, and nothing they pin re-enables the forward rule. *)
let imply_gate t ~component gate_index =
  t.visits <- t.visits + 1;
  let c = t.circuit in
  let layer = t.layers.(component - 1) in
  let g = c.Circuit.gates.(gate_index) in
  let out = c.Circuit.num_pis + gate_index in
  let fanins = g.Circuit.fanins in
  let n = Array.length fanins in
  match g.Circuit.kind with
  | Gate.Buff -> (
    assign t ~component ~net:out layer.(fanins.(0));
    match layer.(out) with
    | (Bit.Zero | Bit.One) as v -> assign t ~component ~net:fanins.(0) v
    | Bit.X -> ())
  | Gate.Not -> (
    assign t ~component ~net:out (Bit.not_ layer.(fanins.(0)));
    match layer.(out) with
    | (Bit.Zero | Bit.One) as v ->
      assign t ~component ~net:fanins.(0) (Bit.not_ v)
    | Bit.X -> ())
  | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor) as kind -> (
    let cv =
      match kind with
      | Gate.And | Gate.Nand -> Bit.Zero
      | Gate.Or | Gate.Nor | Gate.Not | Gate.Buff | Gate.Xor | Gate.Xnor ->
        Bit.One
    in
    let ncv = Bit.not_ cv in
    let inv = Gate.inverting kind in
    let out_controlled = if inv then ncv else cv
    and out_all_nc = if inv then cv else ncv in
    (* Forward. *)
    let any_cv = ref false and all_ncv = ref true in
    for i = 0 to n - 1 do
      let v = layer.(fanins.(i)) in
      if Bit.equal v cv then any_cv := true;
      if not (Bit.equal v ncv) then all_ncv := false
    done;
    if !any_cv then assign t ~component ~net:out out_controlled
    else if !all_ncv then assign t ~component ~net:out out_all_nc;
    (* Backward. *)
    match layer.(out) with
    | Bit.X -> ()
    | v when Bit.equal v out_all_nc ->
      for i = 0 to n - 1 do
        assign t ~component ~net:fanins.(i) ncv
      done
    | _ ->
      (* Output is controlled: if exactly one input is unknown and every
         other input is non-controlling, the unknown one must be
         controlling. *)
      let unknown = ref (-1) and count = ref 0 and rest_nc = ref true in
      for i = 0 to n - 1 do
        match layer.(fanins.(i)) with
        | Bit.X ->
          incr count;
          unknown := fanins.(i)
        | v -> if not (Bit.equal v ncv) then rest_nc := false
      done;
      if !count = 1 && !rest_nc then assign t ~component ~net:!unknown cv
      else if !count = 0 && !rest_nc then
        (* all inputs non-controlling but output controlled *)
        raise (Stop (out, component)))
  | (Gate.Xor | Gate.Xnor) as kind -> (
    let inv = Gate.inverting kind in
    (* Forward. *)
    let acc = ref Bit.Zero in
    for i = 0 to n - 1 do
      acc := Bit.xor !acc layer.(fanins.(i))
    done;
    assign t ~component ~net:out (if inv then Bit.not_ !acc else !acc);
    (* Backward: output and all-but-one inputs known. *)
    match layer.(out) with
    | Bit.X -> ()
    | out_v ->
      let unknown = ref (-1) and count = ref 0 and acc = ref Bit.Zero in
      for i = 0 to n - 1 do
        match layer.(fanins.(i)) with
        | Bit.X ->
          incr count;
          unknown := fanins.(i)
        | v -> acc := Bit.xor !acc v
      done;
      if !count = 1 then
        let want = if inv then Bit.not_ out_v else out_v in
        assign t ~component ~net:!unknown (Bit.xor want !acc))

(* Pop until empty.  An entry's [queued] mark is cleared only after its
   visit, so the gate's own writes do not re-queue it. *)
let drain t =
  while t.sp > 0 do
    t.sp <- t.sp - 1;
    let key = t.stack.(t.sp) in
    t.active <- key;
    imply_gate t ~component:((key / t.gates) + 1) (key mod t.gates);
    t.queued.(key) <- false;
    t.active <- -1
  done

let pin t ~component ~net = function
  | Req.Any -> ()
  | Req.Must b -> assign t ~component ~net (Bit.of_bool b)

let rec seed t = function
  | [] -> ()
  | (net, (r : Req.t)) :: rest ->
    pin t ~component:1 ~net r.Req.r1;
    pin t ~component:2 ~net r.Req.r2;
    pin t ~component:3 ~net r.Req.r3;
    seed t rest

let add t reqs =
  if t.failed then invalid_arg "Implication.add: state holds a conflict";
  let v0 = t.visits in
  let result =
    match
      seed t reqs;
      drain t
    with
    | () -> Ok ()
    | exception Stop (net, component) ->
      if t.active >= 0 then t.queued.(t.active) <- false;
      t.active <- -1;
      for i = 0 to t.sp - 1 do
        t.queued.(t.stack.(i)) <- false
      done;
      t.sp <- 0;
      t.failed <- true;
      Error { net; component }
  in
  if t.visits > v0 then Metrics.add m_gate_visits (t.visits - v0);
  result

let reset t =
  for i = 0 to t.trail_len - 1 do
    let k = t.trail.(i) in
    t.layers.(k / t.nets).(k mod t.nets) <- Bit.X
  done;
  t.trail_len <- 0;
  t.failed <- false

let value t ~component net = t.layers.(component - 1).(net)

let snapshot t =
  Array.init t.nets (fun net ->
      Triple.make t.layers.(0).(net) t.layers.(1).(net) t.layers.(2).(net))

let infer c reqs =
  let t = create c in
  match add t reqs with
  | Ok () -> Consistent (snapshot t)
  | Error { net; component } -> Conflict { net; component }

let consistent c reqs = Result.is_ok (add (create c) reqs)
