(** Single global mutex-protected FIFO task queue.

    This is the structural model of GCC libgomp's task handling: every
    worker of a pool pushes its spawned children to and pops them from
    one shared queue, so all scheduling traffic serialises on one lock —
    the pathology behind libgomp's curve in Figure 10 of the paper.  It
    holds only the gomp preset's spawned children; routed roots go
    through the lock-free {!Inject_queue} on every preset. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Enqueue at the back (FIFO order, like libgomp's task list). *)

val pop : 'a t -> 'a option
(** Dequeue from the front; [None] if empty. *)

val pop_batch : 'a t -> max:int -> 'a list
(** Dequeue up to [max] elements from the front under one lock
    acquisition, preserving FIFO order.  Amortises the lock cost when a
    worker drains several tasks at once; [[]] if empty. *)

val size : 'a t -> int
