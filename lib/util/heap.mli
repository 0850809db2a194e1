(** Mutable binary heap with a caller-supplied ordering.

    Used with lazy deletion by the path enumerator and by the
    value-based compaction scan of [Atpg.generate]: stale entries stay in
    the heap and are skipped by the caller on pop ({!pop_while}).  The
    timing simulator uses it as a plain event queue. *)

type 'a t

val create : leq:('a -> 'a -> bool) -> 'a t
(** [leq a b] means [a] has priority at least as high as [b] (pops
    first). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the highest-priority element. *)

val peek : 'a t -> 'a option

val pop_while : 'a t -> ('a -> bool) -> 'a option
(** [pop_while t stale] pops and discards elements while [stale] holds,
    returning the first fresh element (popped), if any. *)
