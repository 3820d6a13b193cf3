(** Keeps polymorphic comparison off the scheduler's hot paths.

    The deque, sync, runtime, server, trace and obs libraries build with
    [-open Nowa_util.Poly_guard -alert ++polymorphic] (see their dune
    files), so a bare [max], [min] or [compare] there resolves to a
    value below and fails to compile with "Error (alert polymorphic)".

    The reason: without flambda, [Stdlib.max] and [Stdlib.min] are
    compiled once, for every type, so their comparison is the C call
    [caml_greaterequal] / [caml_lessequal] even on two ints, and a bare
    [compare] passed as a value is [caml_compare].  Write [Int.max],
    [Int.min], [Int.compare], [Float.max], [String.compare], or spell
    out [Stdlib.compare] where a structural order is really meant.
    Polymorphic hashing ([Hashtbl.hash], the generic [Hashtbl]) is the
    same C-call tax; it is not shadowed here, so hot tables use
    [Hashtbl.Make] over their key type. *)

val max : 'a -> 'a -> 'a
[@@alert
  polymorphic
    "Stdlib.max compares through a C call at every type: use Int.max or \
     Float.max"]

val min : 'a -> 'a -> 'a
[@@alert
  polymorphic
    "Stdlib.min compares through a C call at every type: use Int.min or \
     Float.min"]

external compare : 'a -> 'a -> int = "%compare"
[@@alert
  polymorphic
    "compare as a value is caml_compare, a C call: use Int.compare, \
     String.compare, or Stdlib.compare where a structural order is meant"]
