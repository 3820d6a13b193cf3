(** Systematic interleaving exploration for the platform's concurrent
    algorithms — the methodology of Section II-D of the paper, where
    model checking found a bug in a published Chase-Lev implementation
    (Norris & Demsky, CDSChecker).

    A {e spec} builds, on fresh shared state, a set of thread bodies and
    a final invariant.  Thread bodies access shared memory exclusively
    through {!Cell}, whose every operation is one atomic action preceded
    by a scheduling point.  {!explore} then enumerates thread
    interleavings with {e dynamic partial-order reduction}: each
    schedule is executed once, incrementally, to completion (replay only
    happens on backtrack), and the search prunes with sleep sets plus
    backtrack sets planted at races (Flanagan–Godefroid-style, with
    vector-clock happens-before tracking keyed on [Cell] identity).
    Independent actions on distinct cells therefore no longer multiply
    the schedule space, while at least one representative of every
    Mazurkiewicz trace is still explored — the reduction preserves all
    final-state invariant verdicts and all inline {!check} failures.
    {!explore_naive} is the unreduced full enumeration, kept as the
    cross-check baseline; both report identical verdicts, and the test
    suite asserts the reduction factor.

    Spec set-up and the final invariant run outside the scheduler: there
    a {!Cell} access is a plain one (and a blocking operation whose
    condition does not hold raises [Invalid_argument]), so a harness can
    build and judge state through the real module's own functions.

    Under OCaml's sequentially-consistent atomics this checks the
    algorithms under SC; it cannot exhibit weak-memory-only bugs, but it
    does exhibit all interleaving races — including the worker/thief
    race of the paper's Figure 6, which the test-suite demonstrates on a
    naive strand counter and proves absent (bounded-exhaustively) from
    the wait-free and lock-based counters. *)

module Cell : sig
  type 'a t

  val make : 'a -> 'a t
  val read : 'a t -> 'a
  val write : 'a t -> 'a -> unit

  val cas : 'a t -> 'a -> 'a -> bool
  (** Compare (physical equality, as [Atomic.compare_and_set]) and swap,
      one atomic action. *)

  val fetch_add : int t -> int -> int

  val exchange : 'a t -> 'a -> 'a
  (** Swap in a value and return the old one, one atomic action (as
      [Atomic.exchange]). *)

  val peek : 'a t -> 'a
  (** Read without a scheduling point — for invariants only. *)

  val await : 'a t -> ('a -> bool) -> 'a
  (** Blocking read: the thread is {e disabled} (never scheduled) while
      the predicate is false on the cell's current value, and the read
      runs atomically with the enabledness check once it holds.  This is
      how specs model parking, condition variables and reply waits
      without unbounded spin loops, keeping exhaustive exploration
      finite.  A thread still blocked when no thread can run leaves the
      execution in a terminal state that the final invariant judges —
      deadlock detection is the spec's invariant saying "everyone must
      have finished". *)

  val await_cas : 'a t -> 'a -> 'a -> unit
  (** Blocking compare-and-swap: disabled until the cell holds the
      expected value (physically), then swaps in the desired value
      atomically with the check.  Models mutex acquisition
      ([await_cas lock false true]) without the spin loop. *)
end

val relax : unit -> unit
(** The spin rule, behind the traced [Domain.cpu_relax]: the calling
    thread is disabled until one of the cells it {!Cell.read} since its
    previous [relax] holds a different value, and it is no step at all
    if one already does (or if it has read nothing yet).  A spin round
    that re-reads unchanged cells only repeats a state, so blocking it
    instead keeps exhaustive search finite.  Sound when what the round
    does depends only on the cells it read; a round that reads nothing
    keeps waiting on the previous round's set. *)

val check : bool -> string -> unit
(** Inline assertion inside a thread body: a violation aborts the
    execution and is reported with its schedule. *)

type outcome = {
  executions : int;  (** completed interleavings explored *)
  truncated : int;  (** executions cut off at the step bound *)
  blocked : int;
      (** sleep-set-pruned executions: schedules recognised as
          reorderings of ones already explored (always [0] for
          {!explore_naive}) *)
  complete : bool;
      (** [true] iff the search finished within the execution budget
          {e and} no execution was truncated at the step bound — i.e.
          the verdict is exhaustive, not merely bounded *)
}

type result =
  | Ok of outcome
  | Violation of { schedule : int list; message : string }
      (** a schedule (sequence of thread indices) leading to a failed
          {!check} or final invariant *)

val explore :
  ?max_executions:int ->
  ?max_steps:int ->
  (unit -> (unit -> unit) list * (unit -> bool)) ->
  result
(** [explore spec] runs [spec ()] afresh for every explored schedule
    prefix; the returned thread list runs under the controlled scheduler
    and the returned thunk is the final invariant.  Uses dynamic
    partial-order reduction; truncated and sleep-set-pruned executions
    count toward [max_executions] so spin-heavy specs cannot exceed
    their budget.  Defaults: 200_000 executions, 400 steps per
    execution. *)

val explore_naive :
  ?max_executions:int ->
  ?max_steps:int ->
  (unit -> (unit -> unit) list * (unit -> bool)) ->
  result
(** Full enumeration without reduction (the CHESS-style baseline, now
    with incremental execution instead of quadratic replay-per-node).
    Same budget accounting as {!explore}; used to cross-check verdicts
    and measure the reduction factor. *)

val explore_random :
  ?seed:int ->
  ?max_schedules:int ->
  ?max_steps:int ->
  ?change_points:int ->
  (unit -> (unit -> unit) list * (unit -> bool)) ->
  result
(** Seeded random-walk fallback for specs too large to exhaust: each
    schedule draws a random thread-priority permutation and demotes the
    running thread at [change_points] random depths (PCT-style priority
    schedules, Burckhardt et al.).  Reports the number of schedules
    sampled in [executions] and {e always} [complete = false] — a
    sample is never a proof. *)

val run_schedule :
  ?max_steps:int ->
  (unit -> (unit -> unit) list * (unit -> bool)) ->
  int list ->
  result
(** [run_schedule spec schedule] replays one explicit schedule (as
    reported by a {!Violation}) and reports what it observes — the
    mechanism behind pinned-schedule regression tests.  Raises
    [Invalid_argument] if the schedule names a thread that is finished
    or blocked at that point (a stale pin). *)
