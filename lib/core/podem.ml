module Bit = Pdf_values.Bit
module Req = Pdf_values.Req
module Circuit = Pdf_circuit.Circuit
module Two_pattern = Pdf_sim.Two_pattern
module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span
module Attrib = Pdf_obs.Attrib

(* Engine-specific observability.  The structural engine has no trial
   simulations; its unit of search work is the PI decision and its unit
   of propagation work is the implication.  [imply_gates] charges each
   implication the full cone it models; [imply_evals] counts the gates
   the event-driven propagation actually evaluated. *)
let m_runs = Metrics.counter "podem.runs"
let m_decisions = Metrics.counter "podem.decisions"
let m_backtracks = Metrics.counter "podem.backtracks"
let m_conflicts = Metrics.counter "podem.conflicts"
let m_conflict_hits = Metrics.counter "podem.conflict_hits"
let m_implications = Metrics.counter "podem.implications"
let m_imply_gates = Metrics.counter "podem.imply_gates"
let m_imply_evals = Metrics.counter "podem.imply_evals"
let m_aborts = Metrics.counter "podem.aborts"

(* Shared justification-layer counters (registration is idempotent, so
   these are the same counters justify.ml declares).  PODEM charges the
   same semantic vocabulary the sim engine does — runs, backtracks,
   resimulation gates (an implication pass costs one full cone pass,
   exactly like [Justify]'s resim), conflict hits — so the attribution
   sheets stay conserved against the process-wide metrics whichever
   engine ran (the `attrib` oracle checks this under any PDF_JUSTIFY). *)
let mj_runs = Metrics.counter "justify.runs"
let mj_backtracks = Metrics.counter "justify.backtracks"
let mj_resim_gates = Metrics.counter "justify.resim_gates"
let mj_conflict_hits = Metrics.counter "justify.conflict_hits"

let h_backtrack_depth =
  Metrics.histogram
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]
    "justify.backtrack_depth"

(* Seeded mutation hook for the differential oracles (DESIGN.md §10):
   when enabled, the second-pattern implication of multi-input gates
   reads the first-pattern value of fanin 0 — a copy-paste bug subtle
   enough to survive the engine's own final check (the corrupted state
   self-consistently "satisfies" the requirements) and therefore only
   catchable by an independent re-simulation, which is exactly what the
   `justify-podem` oracle does. *)
let injected_bug = Atomic.make false
let set_injected_bug b = Atomic.set injected_bug b
let injected_bug_enabled () = Atomic.get injected_bug

type t = {
  circuit : Circuit.t;
  att : Attrib.sheet option;
  mutable e_runs : int;
  mutable e_decisions : int;
  mutable e_backtracks : int;
  mutable e_imply_calls : int;
  mutable e_imply_gates : int;
  mutable e_imply_evals : int;
  mutable e_aborts : int;
  (* Abort forensics, same shape and semantics as [Justify]'s: the most
     recent requirement-conflict net with its level, and the deepest
     conflict level since the last reset. *)
  mutable last_conflict_net : int;
  mutable last_conflict_level : int;
  mutable deepest_conflict_level : int;
  (* Search scratch, sized once per engine and reused by every run
     (DESIGN.md §15.1).  [r] holds the live search's requirements and
     [s] its implied values (3 x nets, X elsewhere); [a1]/[a3] are its
     PI pattern bits.  Every write to [s], [a1] or [a3] is logged on
     the trail: [trail_tag] is the written net, or [-(2 pi + b) - 1]
     for pattern bit [b] (0 = first, 1 = second) of [pi]; [trail_v*]
     hold the overwritten values.  Writes only turn X into definite
     values (implication is monotone), so at most three entries per net
     and one per pattern bit are live at once.  [cone_mark] stamps the
     live cone's nets with [run_id] (a gate through its output net);
     [queued] stamps a gate with the [wave] (one per assignment) that
     pushed it onto [heap], a min-heap of gate indices holding the first
     [heap_len] slots.
     [seen] stamps the nets a backtrace visited with [seen_id].  The
     decision stack is [d_*], [depth] entries deep; [d_mark] is the
     trail length before the decision's assignment. *)
  r : Bit.t array array;
  s : Bit.t array array;
  a1 : Bit.t array;
  a3 : Bit.t array;
  trail_tag : int array;
  trail_v0 : Bit.t array;
  trail_v1 : Bit.t array;
  trail_v2 : Bit.t array;
  mutable trail_len : int;
  cone_mark : int array;
  mutable run_id : int;
  queued : int array;
  mutable wave : int;
  heap : int array;
  mutable heap_len : int;
  seen : int array;
  mutable seen_id : int;
  d_pi : int array;
  d_j : int array;
  d_value : bool array;
  d_flipped : bool array;
  d_mark : int array;
  mutable depth : int;
  mutable live_reqs : int array;
}

let create ?attrib circuit =
  let n = Circuit.num_nets circuit
  and ng = Circuit.num_gates circuit
  and m = circuit.Circuit.num_pis in
  let trail = (3 * n) + (2 * m) in
  {
    circuit;
    att = attrib;
    e_runs = 0;
    e_decisions = 0;
    e_backtracks = 0;
    e_imply_calls = 0;
    e_imply_gates = 0;
    e_imply_evals = 0;
    e_aborts = 0;
    last_conflict_net = -1;
    last_conflict_level = -1;
    deepest_conflict_level = -1;
    r = Array.init 3 (fun _ -> Array.make n Bit.X);
    s = Array.init 3 (fun _ -> Array.make n Bit.X);
    a1 = Array.make m Bit.X;
    a3 = Array.make m Bit.X;
    trail_tag = Array.make trail 0;
    trail_v0 = Array.make trail Bit.X;
    trail_v1 = Array.make trail Bit.X;
    trail_v2 = Array.make trail Bit.X;
    trail_len = 0;
    cone_mark = Array.make n 0;
    run_id = 0;
    queued = Array.make ng 0;
    wave = 0;
    heap = Array.make ng 0;
    heap_len = 0;
    seen = Array.make n 0;
    seen_id = 0;
    d_pi = Array.make (2 * m) 0;
    d_j = Array.make (2 * m) 0;
    d_value = Array.make (2 * m) false;
    d_flipped = Array.make (2 * m) false;
    d_mark = Array.make (2 * m) 0;
    depth = 0;
    live_reqs = [||];
  }

let runs t = t.e_runs
let decisions t = t.e_decisions
let backtracks t = t.e_backtracks
let imply_calls t = t.e_imply_calls
let imply_gates t = t.e_imply_gates
let aborts t = t.e_aborts

type forensics = { last_net : int; last_level : int; deepest_level : int }

let forensics t =
  {
    last_net = t.last_conflict_net;
    last_level = t.last_conflict_level;
    deepest_level = t.deepest_conflict_level;
  }

let reset_forensics t =
  t.last_conflict_net <- -1;
  t.last_conflict_level <- -1;
  t.deepest_conflict_level <- -1

let note_conflict eng net =
  Metrics.incr m_conflict_hits;
  Metrics.incr mj_conflict_hits;
  let level = eng.circuit.Circuit.level.(net) in
  eng.last_conflict_net <- net;
  eng.last_conflict_level <- level;
  if level > eng.deepest_conflict_level then
    eng.deepest_conflict_level <- level;
  match eng.att with
  | Some a ->
    a.Attrib.conflicts.(net) <- a.Attrib.conflicts.(net) + 1;
    a.Attrib.t_conflicts <- a.Attrib.t_conflicts + 1
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Search state                                                        *)
(* ------------------------------------------------------------------ *)

(* The 5-valued algebra is carried as the (component-0, component-2)
   pair of each net — {stable 0, stable 1, rising (the classical D̄→D
   pair), falling, unassigned} — plus the conservatively hazard-aware
   intermediate component 1 (DESIGN.md §15).  PODEM assigns only PI
   pattern bits ([a1]/[a3]); everything else is implied forward.  The
   values themselves live in the engine's scratch; a state is the live
   search's requirement nets, in merged order, and its cone. *)
type state = {
  c : Circuit.t;
  eng : t;
  req_nets : int array;
  cone_gates : int array;  (* ascending gate indices, topological *)
  cone_pis : int array;
  mutable implies : int;  (* implications, for deferred attribution *)
}

let mismatch req value =
  match req, value with
  | (Bit.Zero | Bit.One), (Bit.Zero | Bit.One) -> not (Bit.equal req value)
  | (Bit.Zero | Bit.One | Bit.X), (Bit.Zero | Bit.One | Bit.X) -> false

(* Fan-in cone of the requirement nets — the same gates and PIs as
   [Justify]'s, stamped into [cone_mark] with the run id. *)
let compute_cone eng req_nets =
  let c = eng.circuit in
  let id = eng.run_id in
  let m = c.Circuit.num_pis in
  let rec visit net =
    if eng.cone_mark.(net) <> id then begin
      eng.cone_mark.(net) <- id;
      if net >= m then Array.iter visit c.Circuit.gates.(net - m).Circuit.fanins
    end
  in
  Array.iter visit req_nets;
  (* Marked nets in [lo, hi), ascending, shifted down by [lo]; sized by
     a first count, so the only allocation is the result. *)
  let collect lo hi =
    let k = ref 0 in
    for net = lo to hi - 1 do
      if eng.cone_mark.(net) = id then incr k
    done;
    let out = Array.make !k 0 in
    k := 0;
    for net = lo to hi - 1 do
      if eng.cone_mark.(net) = id then begin
        out.(!k) <- net - lo;
        incr k
      end
    done;
    out
  in
  (collect m (Circuit.num_nets c), collect 0 m)

(* Requirement lists are merged per net in a table created with
   [~random:false]: the fold order becomes the requirement order, which
   steers objective selection, so it must not depend on the hash seed
   ([OCAMLRUNPARAM=R]). *)
let merge_reqs reqs =
  let acc = Hashtbl.create ~random:false 16 in
  let ok =
    List.for_all
      (fun (net, req) ->
        let current =
          match Hashtbl.find_opt acc net with Some r -> r | None -> Req.any
        in
        match Req.merge current req with
        | Some merged ->
          Hashtbl.replace acc net merged;
          true
        | None -> false)
      reqs
  in
  if ok then Some (Hashtbl.fold (fun net req l -> (net, req) :: l) acc [])
  else None

(* ---- The trail ---------------------------------------------------- *)

let trail_push eng tag v0 v1 v2 =
  let i = eng.trail_len in
  eng.trail_tag.(i) <- tag;
  eng.trail_v0.(i) <- v0;
  eng.trail_v1.(i) <- v1;
  eng.trail_v2.(i) <- v2;
  eng.trail_len <- i + 1

(* Write all three components of [net], logging the old ones. *)
let write_net eng net v0 v1 v2 =
  let s = eng.s in
  trail_push eng net s.(0).(net) s.(1).(net) s.(2).(net);
  s.(0).(net) <- v0;
  s.(1).(net) <- v1;
  s.(2).(net) <- v2

(* Restore every value written since the trail had length [mark]. *)
let undo eng mark =
  while eng.trail_len > mark do
    let i = eng.trail_len - 1 in
    eng.trail_len <- i;
    let tag = eng.trail_tag.(i) in
    if tag >= 0 then begin
      eng.s.(0).(tag) <- eng.trail_v0.(i);
      eng.s.(1).(tag) <- eng.trail_v1.(i);
      eng.s.(2).(tag) <- eng.trail_v2.(i)
    end
    else begin
      let code = -tag - 1 in
      if code land 1 = 0 then eng.a1.(code lsr 1) <- eng.trail_v0.(i)
      else eng.a3.(code lsr 1) <- eng.trail_v0.(i)
    end
  done

(* ---- Event-driven forward implication ----------------------------- *)

(* The worklist: a binary min-heap of gate indices in [eng.heap], the
   same as [Justify]'s trial worklist (DESIGN.md §13.6).  Each engine
   keeps its own copy: dune's default build compiles modules opaquely,
   and the trial loop ran ~10% slower through a shared heap module. *)
let heap_push eng gi =
  let h = eng.heap in
  let i = ref eng.heap_len in
  eng.heap_len <- !i + 1;
  while !i > 0 && h.((!i - 1) / 2) > gi do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- gi

let heap_pop eng =
  let h = eng.heap in
  let top = h.(0) in
  let n = eng.heap_len - 1 in
  eng.heap_len <- n;
  let last = h.(n) in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
      if h.(c) < last then begin
        h.(!i) <- h.(c);
        i := c
      end
      else continue := false
    end
  done;
  if n > 0 then h.(!i) <- last;
  top

(* Queue every cone gate reading [net], once per wave. *)
let push_fanouts eng net =
  let c = eng.circuit in
  let fo = c.Circuit.fanouts.(net) in
  for i = 0 to Array.length fo - 1 do
    let gi, _pin = fo.(i) in
    if
      eng.cone_mark.(c.Circuit.num_pis + gi) = eng.run_id
      && eng.queued.(gi) <> eng.wave
    then begin
      eng.queued.(gi) <- eng.wave;
      heap_push eng gi
    end
  done

(* Component [k] of gate [g] over the layers [s]; under the injected
   bug, component 2 of a multi-input gate reads fanin 0's component 0. *)
let eval_component bug s (g : Circuit.gate) k =
  if bug && k = 2 && Array.length g.Circuit.fanins > 1 then
    let f0 = g.Circuit.fanins.(0) in
    Pdf_sim.Logic_sim.eval_gate_get g (fun net ->
        if net = f0 then s.(0).(net) else s.(2).(net))
  else Pdf_sim.Logic_sim.eval_gate s.(k) g

(* Drain the worklist: pop gates in ascending index order — a
   topological order, so every fanin has settled when its reader pops —
   evaluate all three components, and when any changed, log and write
   them and queue the output's in-cone fanouts.  Forward three-valued
   evaluation is a pure function of [a1]/[a3], so the fixpoint is the
   value a full pass over the cone computes, gate for gate. *)
let propagate eng =
  let c = eng.circuit and s = eng.s in
  let bug = injected_bug_enabled () in
  while eng.heap_len > 0 do
    let gi = heap_pop eng in
    let g = c.Circuit.gates.(gi) in
    let out = Circuit.net_of_gate c gi in
    eng.e_imply_evals <- eng.e_imply_evals + 1;
    let v0 = eval_component bug s g 0
    and v1 = eval_component bug s g 1
    and v2 = eval_component bug s g 2 in
    if
      not
        (Bit.equal v0 s.(0).(out)
        && Bit.equal v1 s.(1).(out)
        && Bit.equal v2 s.(2).(out))
    then begin
      write_net eng out v0 v1 v2;
      push_fanouts eng out
    end
  done

(* Set unassigned pattern bit [j] (1 or 3) of cone PI [pi] to [b] and
   imply forward from it, logging every write on the trail. *)
let assign_bit eng pi j b =
  let v = Bit.of_bool b in
  (match j with
  | 1 ->
    trail_push eng (-(2 * pi) - 1) eng.a1.(pi) Bit.X Bit.X;
    eng.a1.(pi) <- v
  | 3 ->
    trail_push eng (-(2 * pi) - 2) eng.a3.(pi) Bit.X Bit.X;
    eng.a3.(pi) <- v
  | _ -> invalid_arg "pattern");
  let b1 = eng.a1.(pi) and b3 = eng.a3.(pi) in
  let mid = Two_pattern.middle_of_pair b1 b3 in
  let s = eng.s in
  if
    not
      (Bit.equal b1 s.(0).(pi) && Bit.equal mid s.(1).(pi)
     && Bit.equal b3 s.(2).(pi))
  then begin
    write_net eng pi b1 mid b3;
    eng.wave <- eng.wave + 1;
    push_fanouts eng pi;
    propagate eng
  end

(* The modelled cost of one implication: a full pass over the cone,
   charged to [imply_gates] and the shared [resim_gates] whatever the
   propagation evaluated, so ledgers, profiles and the `attrib` oracle
   keep the vocabulary of a full-pass engine. *)
let charge_implication st =
  let eng = st.eng in
  let cone = Array.length st.cone_gates in
  st.implies <- st.implies + 1;
  eng.e_imply_calls <- eng.e_imply_calls + 1;
  eng.e_imply_gates <- eng.e_imply_gates + cone;
  Metrics.incr m_implications;
  Metrics.add m_imply_gates cone;
  Metrics.add mj_resim_gates cone

(* One implication: assign a pattern bit and propagate it. *)
let imply_assign st pi j b =
  let eng = st.eng in
  let evals0 = eng.e_imply_evals in
  charge_implication st;
  assign_bit eng pi j b;
  let evals = eng.e_imply_evals - evals0 in
  if evals > 0 then Metrics.add m_imply_evals evals

(* First requirement net whose implied definite value contradicts it. *)
let conflict_net st =
  let r = st.eng.r and s = st.eng.s in
  let n = Array.length st.req_nets in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < n do
    let net = st.req_nets.(!i) in
    if
      mismatch r.(0).(net) s.(0).(net)
      || mismatch r.(1).(net) s.(1).(net)
      || mismatch r.(2).(net) s.(2).(net)
    then found := net;
    incr i
  done;
  if !found < 0 then None else Some !found

let satisfied st =
  let r = st.eng.r and s = st.eng.s in
  let ok k net =
    match r.(k).(net) with
    | Bit.X -> true
    | (Bit.Zero | Bit.One) as v -> Bit.equal s.(k).(net) v
  in
  Array.for_all (fun net -> ok 0 net && ok 1 net && ok 2 net) st.req_nets

(* The objective frontier: requirement components pinned to a definite
   value whose implied value is still X.  This is the two-pattern
   generalisation of the classical D-frontier — instead of a faulty
   machine's D/D̄ boundary there is a set of required line values the
   search still has to drive (DESIGN.md §15); until the test is found
   (and absent a conflict) it is never empty, because an unsatisfied
   requirement is either a definite mismatch (a conflict) or an X. *)
let frontier st =
  let r = st.eng.r and s = st.eng.s in
  Array.to_list st.req_nets
  |> List.concat_map (fun net ->
         List.filter_map
           (fun k ->
             match r.(k).(net) with
             | Bit.X -> None
             | Bit.Zero | Bit.One ->
               if Bit.equal s.(k).(net) Bit.X then Some (net, k) else None)
           [ 0; 1; 2 ])

(* The objective: the first frontier entry, in requirement order and
   component order within a net, with its required value. *)
let rec first_open r s req_nets i k =
  if i >= Array.length req_nets then None
  else if k > 2 then first_open r s req_nets (i + 1) 0
  else
    let net = req_nets.(i) in
    match r.(k).(net) with
    | (Bit.Zero | Bit.One) as want when Bit.equal s.(k).(net) Bit.X ->
      Some (net, k, Bit.equal want Bit.One)
    | Bit.Zero | Bit.One | Bit.X -> first_open r s req_nets i (k + 1)

let objective st = first_open st.eng.r st.eng.s st.req_nets 0 0

(* Desired value for fanin [f] so gate [g]'s component-[k] output moves
   toward [v]: probe the shared evaluator with the fanin forced each
   way, in place (the forced value is restored before returning).  When
   neither definite value settles the output (several X inputs on a
   non-controlled gate), the goal value is passed through unchanged —
   value quality only affects search order, never completeness, because
   the decision loop tries both PI values. *)
let probe_value eng g k f v =
  let sk = eng.s.(k) in
  let saved = sk.(f) in
  let want = Bit.of_bool v in
  sk.(f) <- Bit.One;
  let one = Pdf_sim.Logic_sim.eval_gate sk g in
  sk.(f) <- Bit.Zero;
  let zero = Pdf_sim.Logic_sim.eval_gate sk g in
  sk.(f) <- saved;
  if Bit.equal one want then true else if Bit.equal zero want then false else v

(* Backtrace: depth-first walk backward from objective [(net, k, v)]
   through X-valued nets to an unassigned PI pattern bit; returns the
   PI, the pattern index (1 or 3) and the value to try.  An X gate
   output always has an X fanin (three-valued evaluation is definite on
   definite inputs), so for components 0 and 2 the walk always ends at
   a PI whose corresponding bit is unassigned.  Component-1 objectives
   can additionally dead-end at PIs whose two bits are assigned and
   unequal — their intermediate value is X for good.  [None] therefore
   means the objective's entire X backward cone is frozen: no completion
   of the current assignment can ever make the component definite, so
   the caller soundly treats [None] as a refutation of the branch.
   Visited nets are stamped with the walk's id in the engine's [seen]. *)
let rec backtrace_net eng k0 net v =
  if eng.seen.(net) = eng.seen_id then None
  else begin
    eng.seen.(net) <- eng.seen_id;
    let m = eng.circuit.Circuit.num_pis in
    if net < m then
      (* A PI with an X component-[k0] value. *)
      if k0 = 0 then Some (net, 1, v)
      else if k0 = 2 then Some (net, 3, v)
      else if Bit.equal eng.a1.(net) Bit.X then Some (net, 1, v)
      else if Bit.equal eng.a3.(net) Bit.X then Some (net, 3, v)
      else None (* assigned unequal: the middle is X permanently *)
    else backtrace_fanins eng k0 eng.circuit.Circuit.gates.(net - m) 0 v
  end

and backtrace_fanins eng k0 g i v =
  if i >= Array.length g.Circuit.fanins then None
  else
    let f = g.Circuit.fanins.(i) in
    let found =
      if Bit.equal eng.s.(k0).(f) Bit.X then
        backtrace_net eng k0 f (probe_value eng g k0 f v)
      else None
    in
    match found with
    | Some _ -> found
    | None -> backtrace_fanins eng k0 g (i + 1) v

let backtrace st (net, k, v) =
  let eng = st.eng in
  eng.seen_id <- eng.seen_id + 1;
  backtrace_net eng k net v

(* Drop whatever search the scratch still holds: undo its trail and
   clear its requirements. *)
let clear eng =
  undo eng 0;
  eng.heap_len <- 0;
  Array.iter
    (fun net ->
      eng.r.(0).(net) <- Bit.X;
      eng.r.(1).(net) <- Bit.X;
      eng.r.(2).(net) <- Bit.X)
    eng.live_reqs;
  eng.live_reqs <- [||];
  eng.depth <- 0

let make_state eng merged =
  clear eng;
  let req_nets = Array.of_list (List.map fst merged) in
  List.iter
    (fun (net, (req : Req.t)) ->
      let comp_bit = function
        | Req.Any -> Bit.X
        | Req.Must b -> Bit.of_bool b
      in
      eng.r.(0).(net) <- comp_bit req.Req.r1;
      eng.r.(1).(net) <- comp_bit req.Req.r2;
      eng.r.(2).(net) <- comp_bit req.Req.r3)
    merged;
  eng.live_reqs <- req_nets;
  eng.run_id <- eng.run_id + 1;
  let cone_gates, cone_pis = compute_cone eng req_nets in
  { c = eng.circuit; eng; req_nets; cone_gates; cone_pis; implies = 0 }

(* The initial implication of a search: nothing is assigned, every
   gate has a fanin and reads X, so the all-X scratch is already its
   fixpoint — only the modelled charge remains. *)
let imply_initial st = charge_implication st

(* Deferred attribution flush, mirroring [Justify]'s [record_search].
   The charge is the modelled one: every implication costs its full
   cone, charged to every cone gate's output net in one O(cone) pass at
   the end of the run, as a full-pass engine would have spent it.  The
   gates the event-driven propagation really evaluated are counted
   apart, in [podem.imply_evals]. *)
let record_state st =
  match st.eng.att with
  | Some a when st.implies > 0 ->
    a.Attrib.t_resim_calls <- a.Attrib.t_resim_calls + st.implies;
    a.Attrib.t_resim_gates <-
      a.Attrib.t_resim_gates + (st.implies * Array.length st.cone_gates);
    Array.iter
      (fun gi ->
        let net = Circuit.net_of_gate st.c gi in
        a.Attrib.resim_cone.(net) <- a.Attrib.resim_cone.(net) + st.implies)
      st.cone_gates
  | Some _ | None -> ()

(* Fill unassigned bits with zeros, like [Justify.run_complete]: the
   implied values of assigned nets are monotone under completion
   (three-valued evaluation never turns a definite value back to X when
   inputs become more definite), so any fill preserves satisfaction. *)
let build_test st =
  let eng = st.eng in
  let m = st.c.Circuit.num_pis in
  let v1 = Array.make m false and v3 = Array.make m false in
  Array.iter
    (fun pi ->
      (match Bit.to_bool eng.a1.(pi) with
      | Some b -> v1.(pi) <- b
      | None -> ());
      match Bit.to_bool eng.a3.(pi) with
      | Some b -> v3.(pi) <- b
      | None -> ())
    st.cone_pis;
  Test_pair.create v1 v3

type outcome =
  | Found of Test_pair.t
  | Proved_unsatisfiable
  | Gave_up

exception Budget_exhausted

let note_run eng =
  Metrics.incr m_runs;
  Metrics.incr mj_runs;
  eng.e_runs <- eng.e_runs + 1;
  match eng.att with
  | Some a -> a.Attrib.t_runs <- a.Attrib.t_runs + 1
  | None -> ()

let run ?(max_backtracks = 10_000) eng ~reqs =
  Span.with_ "podem" @@ fun () ->
  note_run eng;
  let c = eng.circuit in
  match merge_reqs reqs with
  | None ->
    Metrics.incr m_conflicts;
    Proved_unsatisfiable
  | Some [] ->
    Found
      (Test_pair.create
         (Array.make c.Circuit.num_pis false)
         (Array.make c.Circuit.num_pis false))
  | Some merged ->
    let st = make_state eng merged in
    let backtracks = ref 0 in
    let spend pi =
      incr backtracks;
      eng.e_backtracks <- eng.e_backtracks + 1;
      Metrics.incr m_backtracks;
      Metrics.incr mj_backtracks;
      Metrics.observe_int h_backtrack_depth eng.depth;
      (match eng.att with
      | Some a ->
        a.Attrib.backtracks.(pi) <- a.Attrib.backtracks.(pi) + 1;
        a.Attrib.t_backtracks <- a.Attrib.t_backtracks + 1
      | None -> ());
      if !backtracks > max_backtracks then raise Budget_exhausted
    in
    let decide pi j v =
      eng.e_decisions <- eng.e_decisions + 1;
      Metrics.incr m_decisions;
      let d = eng.depth in
      eng.d_pi.(d) <- pi;
      eng.d_j.(d) <- j;
      eng.d_value.(d) <- v;
      eng.d_flipped.(d) <- false;
      eng.d_mark.(d) <- eng.trail_len;
      eng.depth <- d + 1;
      imply_assign st pi j v
    in
    (* Chronological backtracking over the decision stack: flip the most
       recent unflipped decision, discarding everything above it, by
       undoing the trail to the decision's mark.  The decisions branch
       on both values of unassigned PI bits, so an exhausted stack is a
       proof of unsatisfiability (conflicts persist under completion by
       monotonicity, and a dead backtrace means the objective component
       is frozen at X). *)
    let rec step () =
      match conflict_net st with
      | Some net ->
        note_conflict eng net;
        backtrack ()
      | None -> (
        (* Without a conflict, an unmet requirement component is an X:
           no objective left means every requirement is satisfied. *)
        match objective st with
        | None -> Some (build_test st)
        | Some obj -> (
          match backtrace st obj with
          | None -> backtrack () (* frozen objective: branch refuted *)
          | Some (pi, j, v) ->
            decide pi j v;
            step ()))
    and backtrack () =
      if eng.depth = 0 then None
      else begin
        let d = eng.depth - 1 in
        let pi = eng.d_pi.(d) in
        spend pi;
        undo eng eng.d_mark.(d);
        if eng.d_flipped.(d) then begin
          eng.depth <- d;
          backtrack ()
        end
        else begin
          eng.d_flipped.(d) <- true;
          eng.d_value.(d) <- not eng.d_value.(d);
          imply_assign st pi eng.d_j.(d) eng.d_value.(d);
          step ()
        end
      end
    in
    let outcome =
      try
        imply_initial st;
        match step () with
        | Some test -> Found test
        | None ->
          Metrics.incr m_conflicts;
          Proved_unsatisfiable
      with Budget_exhausted ->
        eng.e_aborts <- eng.e_aborts + 1;
        Metrics.incr m_aborts;
        Gave_up
    in
    record_state st;
    clear eng;
    outcome

(* ------------------------------------------------------------------ *)
(* Exposed internals for the property tests and the podem-imply oracle *)
(* ------------------------------------------------------------------ *)

module Internal = struct
  type nonrec state = state

  let prepare eng ~reqs =
    match merge_reqs reqs with
    | None -> None
    | Some merged ->
      let st = make_state eng merged in
      imply_initial st;
      Some st

  let assign st (pi, j, v) =
    let a = if j = 1 then st.eng.a1 else st.eng.a3 in
    if not (Bit.equal a.(pi) Bit.X) then
      invalid_arg "Podem.Internal.assign: bit already assigned";
    imply_assign st pi j v

  let mark st = st.eng.trail_len
  let undo st mark = undo st.eng mark
  let implied st k net = st.eng.s.(k).(net)

  (* The full-cone pass the event-driven implication replaced: every
     cone PI set from [a1]/[a3], then every cone gate in ascending index
     order, all three components through the closure-based evaluator
     (with the same injected-bug reading), into fresh layers. *)
  let imply_full st =
    let eng = st.eng in
    let n = Circuit.num_nets st.c in
    let s = Array.init 3 (fun _ -> Array.make n Bit.X) in
    let bug = injected_bug_enabled () in
    Array.iter
      (fun pi ->
        s.(0).(pi) <- eng.a1.(pi);
        s.(2).(pi) <- eng.a3.(pi);
        s.(1).(pi) <- Two_pattern.middle_of_pair eng.a1.(pi) eng.a3.(pi))
      st.cone_pis;
    Array.iter
      (fun gi ->
        let g = st.c.Circuit.gates.(gi) in
        let out = Circuit.net_of_gate st.c gi in
        for k = 0 to 2 do
          let read =
            if bug && k = 2 && Array.length g.Circuit.fanins > 1 then
              fun net ->
                if net = g.Circuit.fanins.(0) then s.(0).(net)
                else s.(2).(net)
            else fun net -> s.(k).(net)
          in
          s.(k).(out) <- Pdf_sim.Logic_sim.eval_gate_get g read
        done)
      st.cone_gates;
    s

  let frontier = frontier
  let conflict = conflict_net
  let satisfied = satisfied
  let objective = objective
  let backtrace = backtrace
  let cone_pis st = st.cone_pis

  let snapshot st =
    let eng = st.eng in
    let buf = Buffer.create 256 in
    let row a = Array.iter (fun b -> Buffer.add_char buf (Bit.char b)) a in
    row eng.a1;
    Buffer.add_char buf '/';
    row eng.a3;
    Buffer.add_char buf '|';
    Array.iter
      (fun comp ->
        row comp;
        Buffer.add_char buf ';')
      eng.s;
    Buffer.contents buf
end
