module Bit = Pdf_values.Bit
module Circuit = Pdf_circuit.Circuit
module Gate = Pdf_circuit.Gate

(* Arity is validated at circuit construction (Gate.min_arity), so binary
   kinds always carry at least two fanins; no defensive unary branch.  The
   [get] indirection lets callers evaluate against plain value arrays,
   overlays or any other per-net view without copying. *)
let eval_gate_get (g : Circuit.gate) get =
  let fanins = g.fanins in
  match g.kind with
  | Gate.Not -> Bit.not_ (get fanins.(0))
  | Gate.Buff -> get fanins.(0)
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor ->
    let acc = ref (get fanins.(0)) in
    (match g.kind with
    | Gate.And | Gate.Nand ->
      for i = 1 to Array.length fanins - 1 do
        acc := Bit.and_ !acc (get fanins.(i))
      done
    | Gate.Or | Gate.Nor ->
      for i = 1 to Array.length fanins - 1 do
        acc := Bit.or_ !acc (get fanins.(i))
      done
    | Gate.Xor | Gate.Xnor ->
      for i = 1 to Array.length fanins - 1 do
        acc := Bit.xor !acc (get fanins.(i))
      done
    | Gate.Not | Gate.Buff -> ());
    if Gate.inverting g.kind then Bit.not_ !acc else !acc

(* [eval_gate_get] specialised to a stamped overlay, without a closure:
   fanin [net] reads [over.(net)] when [stamp.(net) = id], else
   [base.(net)].  Same formulas, same fold order. *)
let[@inline] overlay_get base over stamp id net =
  if stamp.(net) = id then over.(net) else base.(net)

let eval_gate_overlay (g : Circuit.gate) ~base ~over ~stamp ~id =
  let fanins = g.fanins in
  let acc = ref (overlay_get base over stamp id fanins.(0)) in
  (match g.kind with
  | Gate.And | Gate.Nand ->
    for i = 1 to Array.length fanins - 1 do
      acc := Bit.and_ !acc (overlay_get base over stamp id fanins.(i))
    done
  | Gate.Or | Gate.Nor ->
    for i = 1 to Array.length fanins - 1 do
      acc := Bit.or_ !acc (overlay_get base over stamp id fanins.(i))
    done
  | Gate.Xor | Gate.Xnor ->
    for i = 1 to Array.length fanins - 1 do
      acc := Bit.xor !acc (overlay_get base over stamp id fanins.(i))
    done
  | Gate.Not | Gate.Buff -> ());
  if Gate.inverting g.kind then Bit.not_ !acc else !acc

let eval_gate (values : Bit.t array) (g : Circuit.gate) =
  let fanins = g.fanins in
  let acc = ref values.(fanins.(0)) in
  (match g.kind with
  | Gate.And | Gate.Nand ->
    for i = 1 to Array.length fanins - 1 do
      acc := Bit.and_ !acc values.(fanins.(i))
    done
  | Gate.Or | Gate.Nor ->
    for i = 1 to Array.length fanins - 1 do
      acc := Bit.or_ !acc values.(fanins.(i))
    done
  | Gate.Xor | Gate.Xnor ->
    for i = 1 to Array.length fanins - 1 do
      acc := Bit.xor !acc values.(fanins.(i))
    done
  | Gate.Not | Gate.Buff -> ());
  if Gate.inverting g.kind then Bit.not_ !acc else !acc

let simulate (c : Circuit.t) pis =
  if Array.length pis <> c.num_pis then
    invalid_arg "Logic_sim.simulate: wrong number of PI values";
  let n = Circuit.num_nets c in
  let values = Array.make n Bit.X in
  Array.blit pis 0 values 0 c.num_pis;
  Array.iteri
    (fun i g -> values.(c.num_pis + i) <- eval_gate values g)
    c.gates;
  values

let simulate_bool c pis =
  let values = simulate c (Array.map Bit.of_bool pis) in
  Array.map
    (fun v ->
      match Bit.to_bool v with
      | Some b -> b
      | None -> assert false (* fully specified inputs => definite outputs *))
    values

let outputs (c : Circuit.t) values = Array.map (fun po -> values.(po)) c.pos
