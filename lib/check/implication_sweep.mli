(** Reference implication: the fixpoint sweep (DESIGN.md §13.7).

    Seeds the requirements, then re-implies every gate on all three
    layers and re-applies the two coupling rules on every net until a
    whole sweep changes nothing.  Same rules and outcome type as the
    event-driven {!Pdf_sim.Implication}; when both are consistent they
    reach the same per-net values, and their verdicts always agree.  A
    conflict may be met on a different net, because the sweep visits
    gates in index order and the worklist does not. *)

val infer :
  Pdf_circuit.Circuit.t ->
  (int * Pdf_values.Req.t) list ->
  Pdf_sim.Implication.outcome
