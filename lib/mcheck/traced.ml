(* Traced stand-ins for exactly the primitives the ported modules use.
   The dune rules compile each shipped coordination module a second
   time with [open Traced] in front, so under the explorer every
   [Atomic] operation is one scheduling point and the code that runs is
   the code that ships.  Plain fields stay plain: the ported modules
   touch them only under a lock or from the owner, as in DSCheck. *)

module Cell = Mcheck.Cell

module Atomic = struct
  type 'a t = 'a Cell.t

  let make = Cell.make
  let get = Cell.read
  let set = Cell.write
  let compare_and_set = Cell.cas
  let fetch_and_add = Cell.fetch_add
  let exchange = Cell.exchange
  let incr c = ignore (Cell.fetch_add c 1)
end

(* A blocking CAS: the waiter is disabled, not spinning, so lock-based
   code explores exhaustively. *)
module Mutex = struct
  type t = bool Cell.t

  let create () = Cell.make false
  let lock m = Cell.await_cas m false true
  let unlock m = Cell.write m false
end

(* A generation cell.  [wait] releases the mutex and blocks until a
   [signal] bumps the generation; waking every waiter is a legal
   spurious wake-up, which callers must tolerate anyway. *)
module Condition = struct
  type t = int Cell.t

  let create () = Cell.make 0
  let signal = Atomic.incr

  let wait c m =
    let g = Cell.read c in
    Mutex.unlock m;
    ignore (Cell.await c (fun g' -> g' <> g));
    Mutex.lock m
end

(* Spin hints: [cpu_relax] applies the explorer's spin rule, and a
   yield is no step at all.  Checker threads share one domain, so
   domain-local storage is the real one: [Kv.exec] reads the calling
   worker's trace context there, which outside a runtime is the no-op
   default. *)
module Domain = struct
  let cpu_relax = Mcheck.relax

  module DLS = Stdlib.Domain.DLS
end

module Unix = struct
  let sleepf (_ : float) = ()
end

module Nowa_util = struct
  module Padding = struct
    let atomic = Atomic.make
  end

  module Splitmix = Nowa_util.Splitmix
  module Clock = Nowa_util.Clock

  (* One backoff step is one spin round under the spin rule: a
     [Kv.exec] caller waiting for a flag or an outcome blocks until a
     cell it read changes. *)
  module Backoff = struct
    type t = unit

    let make () = ()
    let once () = Mcheck.relax ()
  end
end

module Ws_deque_intf = Nowa_deque.Ws_deque_intf
module Sync_metrics = Nowa_sync.Sync_metrics
