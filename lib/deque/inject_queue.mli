(** Lock-free multi-producer multi-consumer FIFO (Michael & Scott,
    PODC '96): each pool's queue of routed roots.

    A push allocates one node (the value and one [Atomic] link, 5 words)
    and makes two CASes: one to link the node, one to move the tail.  A
    pop CASes the head forward and reads the value only after winning;
    on an empty queue it reads two words and writes nothing.  Head and tail
    sit on their own cache lines, so producers and consumers do not
    write the same line.  No operation takes a lock. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Enqueue at the back. *)

val pop_or : 'a t -> 'a -> 'a
(** [pop_or q absent] dequeues from the front, or returns [absent] if
    [q] is empty; pass a value never pushed and test for it with [==].
    Values pushed by one thread come out in the order it pushed them. *)

val length : 'a t -> int
(** Walks the queue: exact when no operation runs concurrently, a racy
    snapshot otherwise.  For the watchdog and for shutdown accounting,
    not for the hot path. *)
