(** Result cell of a spawned child, shared by all engines.

    Writes are published to other workers through the join-counter
    atomics: the child fills the cell before its join decrement, and the
    parent reads it only after observing the join — so the plain mutable
    field is race-free by the OCaml memory model's release/acquire rules
    on atomics. *)

type 'a t

val make : unit -> 'a t
val fill : 'a t -> 'a -> unit
val fill_exn : 'a t -> exn -> unit

val ready : 'a -> 'a t
val raised : exn -> 'a t
(** A cell born filled with the child's value or exception: {!make}
    and {!fill} (or {!fill_exn}) in one call, for a child that ran
    inline and so finished before anyone could read its promise. *)

val make_remote : unit -> 'a t
(** A cross-pool completion cell (for [spawn_on], ISSUE 10): the filler
    runs on a foreign pool whose join counters the reader never
    observes, so publication goes through a private mutex/condvar box
    instead.  Only routed spawns allocate the box — the flat two-word
    cell used by same-pool [spawn] is unchanged. *)

val fill_remote : 'a t -> 'a -> unit
val fill_remote_exn : 'a t -> exn -> unit
(** Fill a remote cell and wake any {!await}er.  Must only be applied
    to promises from {!make_remote}. *)

val get : runtime:string -> 'a t -> 'a
(** Raises the child's exception if it failed, or [Invalid_argument] if
    the child has not been joined yet.  On a remote cell this is a
    non-blocking poll (mutex-protected, never waits). *)

val await : runtime:string -> 'a t -> 'a
(** Block the calling thread until a remote cell is filled, then return
    the value or re-raise the exception.  On an already-filled flat
    promise it returns immediately; on an unfilled flat promise it
    raises [Invalid_argument] (same-pool children are joined by their
    scope's sync, not by blocking). *)
