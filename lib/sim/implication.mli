(** Forward/backward implication of requirement values.

    Used to eliminate undetectable faults: the values of [A(p)] are seeded
    on circuit lines and implied through the circuit; if the implication
    process assigns conflicting values to some line, the fault is
    undetectable (paper, Section 3.1, elimination type 2).  Compaction
    also keeps the values implied by a test's accumulated requirements,
    to reject secondary targets that contradict them (DESIGN.md §5).

    Each of the three triple components is implied as an independent
    three-valued layer with the standard D-algorithm style rules
    (controlling-value forward rules, last-unjustified-input backward
    rules).  The layers are coupled by two sound rules:
    - on any net, a definite intermediate value implies the same initial
      and final values;
    - on a primary input, equal definite initial and final values imply the
      same intermediate value (a stable input cannot glitch).

    The engine is event-driven (DESIGN.md §13.7): a net that becomes
    definite queues the gates that drive and read it on its layer, and
    the coupling rules fire on that net at once.  When no conflict
    arises the implied values do not depend on the visiting order; a
    conflict may be met on a different net than under another order.

    A {!t} is single-domain mutable state. *)

type t
(** Implied values over one circuit, with the scratch to extend and undo
    them.  Everything is sized to the circuit by {!create}: {!reset} and
    a consistent {!add} allocate nothing, and a conflicting one only its
    result. *)

type conflict = { net : int; component : int }
(** A line assigned both 0 and 1; [component] is 1 (first pattern), 2
    (intermediate) or 3 (second pattern). *)

val create : Pdf_circuit.Circuit.t -> t
(** All lines X. *)

val reset : t -> unit
(** Back to all X, undoing only the lines written since the last reset. *)

val add : t -> (int * Pdf_values.Req.t) list -> (unit, conflict) result
(** Pin the requirements and imply them to fixpoint together with
    everything added since the last {!reset}.  Adding a set in several
    calls reaches the same values as one call.  After an [Error] the
    values are partial and only {!reset} may follow.  Every gate visit
    is counted into the [implication.gate_visits] metric. *)

val value : t -> component:int -> int -> Pdf_values.Bit.t
(** The implied value of a net on layer [component] (1, 2 or 3). *)

val snapshot : t -> Pdf_values.Triple.t array
(** Per-net implied values. *)

type outcome =
  | Consistent of Pdf_values.Triple.t array
      (** fixpoint reached; per-net implied values (X = unknown) *)
  | Conflict of { net : int; component : int }
      (** some line was assigned both 0 and 1; [component] is 1, 2 or 3 *)

val infer :
  Pdf_circuit.Circuit.t -> (int * Pdf_values.Req.t) list -> outcome
(** One-shot: {!add} on a fresh state. *)

val consistent :
  Pdf_circuit.Circuit.t -> (int * Pdf_values.Req.t) list -> bool
(** [true] iff {!infer} reaches a fixpoint without conflict. *)
