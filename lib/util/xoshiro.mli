(** Xoshiro256** pseudo-random number generator.

    Each worker owns a private generator so that victim selection for
    randomised work stealing never synchronises between workers.  The
    generator is deterministic from its seed, which the test-suite and the
    discrete-event simulator rely on.

    The state is four 64-bit words in one 32-byte [Bytes], unboxed, so
    {!int}, drawn once per idle round under the random victim policy,
    allocates nothing; {!next} and {!float} box only their result. *)

type t

val make : seed:int -> t
(** [make ~seed] initialises the four 64-bit state words from [seed] using
    SplitMix64, as recommended by the xoshiro authors. *)

val next : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is a uniform value in [\[0, bound)]. [bound] must be
    positive. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. *)
