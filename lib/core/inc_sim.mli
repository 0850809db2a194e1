(** Scalar event-driven incremental two-pattern simulation.

    The thin scalar counterpart of {!Pdf_bitsim.Wsim.Inc} (DESIGN.md
    §13): a dirty-set worklist over the circuit's validated level
    buckets ({!Pdf_circuit.Circuit.level_gates}), maintaining a
    caller-owned three-component value state ([3 x num_nets] of
    {!Pdf_values.Bit.t}) in place.  {!set_pi} diffs an input assignment
    against the previous one and seeds only real changes; {!propagate}
    re-evaluates the affected fanout cone level by level, stopping a
    branch when a gate's three component values are unchanged.  Because
    gate functions are pure and evaluated in topological order, the
    state after [propagate] is exactly what a full re-simulation of the
    (mask-restricted) circuit would produce — the justify engine and
    [Atpg.generate] rely on this to stay byte-identical to their
    full-pass variants ([PDF_INCSIM=0]).

    An optional gate mask restricts propagation to a sub-circuit (the
    justify engine passes its fan-in cone, whose fanins are closed
    under the mask); nets outside the masked cone are never written. *)

type t

val create :
  ?attrib:Pdf_obs.Attrib.sheet ->
  ?gate_mask:bool array ->
  ?log:bool ->
  Pdf_circuit.Circuit.t ->
  s:Pdf_values.Bit.t array array ->
  t
(** [create ?attrib ?gate_mask c ~s] wraps the caller's state [s]
    (aliased, not copied).  [s] must be [3 x num_nets] and all-[X] — the
    fixpoint of the all-[X] input, matching the fresh remembered
    assignment.  [gate_mask], when given, must have one entry per gate;
    it is copied.  When [attrib] is given, every dirty-cone gate
    re-evaluation bumps the sheet's [inc_resims] counter for the gate's
    output net (engine-variant attribution, {!Pdf_obs.Attrib}).  With
    [~log:true] the instance keeps a changed-net log (see {!log}).
    Raises [Invalid_argument] on shape mismatches. *)

val set_pi : t -> int -> v1:Pdf_values.Bit.t -> v3:Pdf_values.Bit.t -> unit
(** Install PI [pi]'s two pattern values; the intermediate component is
    seeded with [Two_pattern.middle_of_pair].  A value equal to the
    previous call's is a no-op. *)

val propagate : t -> unit
(** Drain the dirty worklist in level order.  With no pending changes
    this is a no-op (plus one counted assign). *)

val restart : t -> gates:int array -> unit
(** [restart t ~gates] readies [t] for a new run over the same state, as
    a fresh instance whose gate mask holds exactly [gates]: the
    remembered assignments go back to all-[X], the counters and the log
    are cleared.  The caller must first return [s] to all-[X] (the
    nets a run writes are the PIs it set and the outputs of masked
    gates), and no change may be pending ({!propagate} has run since the
    last {!set_pi}).  Costs O(PIs + old and new [gates]); allocates
    nothing. *)

(** {2 Changed-net log}

    With [~log:true], {!set_pi} and {!propagate} append every net they
    rewrite to a log: a PI whose assignment changed, and a gate output
    whose three-component value differs from before.  Each logged net
    therefore differs from the previous fixpoint, and between two calls
    of {!clear_log} spanning one [set_pi] per input and one [propagate],
    each net is logged at most once — exactly the nets a full
    re-simulation would find changed.  The log holds [num_nets] entries
    and the caller clears it: an append past that raises
    [Invalid_argument].  Without [~log] nothing is recorded.  The
    justify engine reads it to re-try only the necessary-value trials an
    assignment could have changed (DESIGN.md §13.6). *)

val log : t -> int array
(** The log buffer, aliased: its first {!log_length} entries are the
    logged nets, oldest first. *)

val log_length : t -> int

val clear_log : t -> unit

val stats : t -> Pdf_bitsim.Wsim.Inc.stats
(** A copy of the cumulative counters since creation or {!reset_stats}. *)

val reset_stats : t -> unit

val record : num_gates:int -> Pdf_bitsim.Wsim.Inc.stats -> unit
(** {!Pdf_bitsim.Wsim.record_inc}, re-exported so scalar callers account
    into the same [sim.inc.*] metrics. *)
