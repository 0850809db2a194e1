(** Single-pattern logic simulation over three-valued logic. *)

val eval_gate_get :
  Pdf_circuit.Circuit.gate -> (int -> Pdf_values.Bit.t) -> Pdf_values.Bit.t
(** [eval_gate_get g get] evaluates gate [g] reading fanin values through
    [get].  The indirection serves callers that evaluate against an
    overlay or trial assignment rather than a plain value array; it is
    the general scalar gate evaluator, and {!eval_gate} and
    {!eval_gate_overlay} are its closure-free specialisations for the
    hot loops. *)

val eval_gate :
  Pdf_values.Bit.t array -> Pdf_circuit.Circuit.gate -> Pdf_values.Bit.t
(** [eval_gate values g] is [eval_gate_get g (Array.get values)], without
    the closure: the evaluator of the full-pass and incremental loops. *)

val eval_gate_overlay :
  Pdf_circuit.Circuit.gate ->
  base:Pdf_values.Bit.t array ->
  over:Pdf_values.Bit.t array ->
  stamp:int array ->
  id:int ->
  Pdf_values.Bit.t
(** [eval_gate_overlay g ~base ~over ~stamp ~id] is [eval_gate_get g get]
    where [get net] is [over.(net)] when [stamp.(net) = id] and
    [base.(net)] otherwise — the trial-overlay read of the justification
    engine, evaluated without allocating a closure. *)

val simulate :
  Pdf_circuit.Circuit.t -> Pdf_values.Bit.t array -> Pdf_values.Bit.t array
(** [simulate c pis] evaluates the whole circuit in one levelised pass.
    [pis] must have length [c.num_pis]; the result has one value per net
    (PIs first). *)

val simulate_bool : Pdf_circuit.Circuit.t -> bool array -> bool array
(** Fully specified two-valued convenience wrapper. *)

val outputs : Pdf_circuit.Circuit.t -> 'a array -> 'a array
(** Project a per-net array onto the primary outputs. *)
