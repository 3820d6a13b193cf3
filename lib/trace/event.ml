(** Scheduler event vocabulary for the per-worker trace rings.

    Every event the engines emit maps to one of these kinds plus two
    integer arguments.  [arg] carries the victim id for steal events or
    the shard id for request events; [arg2] carries the request id for
    the [Req_*] family and 0 everywhere else.  Kinds are stored in the
    ring as small ints so that the hot-path write touches only int
    arrays — no allocation, no boxing. *)

type kind =
  | Task_start  (** a task/strand begins executing on this worker *)
  | Task_end  (** the task returned control to the scheduler loop *)
  | Spawn
      (** a fork point: continuation made stealable (arg = 0), or the
          child run inline with nothing exposed (arg = 1) *)
  | Steal_attempt  (** probe of a victim deque (arg = victim id) *)
  | Steal_commit  (** successful steal (arg = victim id) *)
  | Steal_abort  (** failed attempt: victim empty or race lost *)
  | Lost_continuation  (** own pop missed: the continuation was stolen *)
  | Suspend  (** strand suspended at an explicit sync *)
  | Resume  (** a suspended frame's continuation resumed *)
  | Stack_acquire  (** worker acquired a stack from the pool *)
  | Stack_release  (** worker released its stack to the pool *)
  | Park  (** idle worker blocked on its condition variable *)
  | Unpark  (** parked worker woke up and rejoined stealing *)
  | Req_submit  (** request pushed into a shard mailbox (arg = shard, arg2 = rid) *)
  | Req_claim  (** combiner picked the request out of a drained batch *)
  | Req_defer  (** request parked behind a bucket loan (arg = shard, arg2 = rid) *)
  | Req_handoff  (** cross-shard bucket grant serving this txn (arg = shard, arg2 = rid) *)
  | Req_apply  (** request's operation applied to the store *)
  | Req_done  (** reply observed by the injector; end of the span *)

let to_int = function
  | Task_start -> 0
  | Task_end -> 1
  | Spawn -> 2
  | Steal_attempt -> 3
  | Steal_commit -> 4
  | Steal_abort -> 5
  | Lost_continuation -> 6
  | Suspend -> 7
  | Resume -> 8
  | Stack_acquire -> 9
  | Stack_release -> 10
  | Park -> 11
  | Unpark -> 12
  | Req_submit -> 13
  | Req_claim -> 14
  | Req_defer -> 15
  | Req_handoff -> 16
  | Req_apply -> 17
  | Req_done -> 18

let of_int = function
  | 0 -> Task_start
  | 1 -> Task_end
  | 2 -> Spawn
  | 3 -> Steal_attempt
  | 4 -> Steal_commit
  | 5 -> Steal_abort
  | 6 -> Lost_continuation
  | 7 -> Suspend
  | 8 -> Resume
  | 9 -> Stack_acquire
  | 10 -> Stack_release
  | 11 -> Park
  | 12 -> Unpark
  | 13 -> Req_submit
  | 14 -> Req_claim
  | 15 -> Req_defer
  | 16 -> Req_handoff
  | 17 -> Req_apply
  | 18 -> Req_done
  | n -> invalid_arg (Printf.sprintf "Event.of_int: %d" n)

let name = function
  | Task_start -> "task-start"
  | Task_end -> "task-end"
  | Spawn -> "spawn"
  | Steal_attempt -> "steal-attempt"
  | Steal_commit -> "steal-commit"
  | Steal_abort -> "steal-abort"
  | Lost_continuation -> "lost-continuation"
  | Suspend -> "suspend"
  | Resume -> "resume"
  | Stack_acquire -> "stack-acquire"
  | Stack_release -> "stack-release"
  | Park -> "park"
  | Unpark -> "unpark"
  | Req_submit -> "req-submit"
  | Req_claim -> "req-claim"
  | Req_defer -> "req-defer"
  | Req_handoff -> "req-handoff"
  | Req_apply -> "req-apply"
  | Req_done -> "req-done"

type t = {
  ts : int;  (** nanoseconds (wall or virtual) *)
  worker : int;
  kind : kind;
  arg : int;
  arg2 : int;  (** request id for [Req_*] events; 0 otherwise *)
}

(* Timestamp first so a dumped ring reads chronologically and greps by
   "ns w<id>" stay anchored. *)
let pp ppf e =
  Format.fprintf ppf "%dns w%d %s(%d,%d)" e.ts e.worker (name e.kind) e.arg
    e.arg2
