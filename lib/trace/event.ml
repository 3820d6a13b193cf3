(** Scheduler event vocabulary for the per-worker trace rings.

    Every event the engines emit maps to one of these kinds plus two
    integer arguments.  [arg] carries the victim id for steal events
    (the pool id for gomp, whose workers share their pool's queue) or
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
  | Steal_commit
      (** successful steal, one per committed grab however many tasks it
          took (arg = victim id) *)
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
  | Req_handoff
      (** a multi-key request waited for a footprint shard's flag that
          another caller held (arg = that shard, arg2 = rid) *)
  | Req_apply  (** request's operation applied to the store *)
  | Req_done  (** reply observed by the injector; end of the span *)

(* A constant constructor is its index in the type, so the ring stores
   a kind as itself, and [to_int] is a primitive even across modules. *)
external to_int : kind -> int = "%identity"

(* Every kind with its name, in constructor order. *)
let table =
  [| (Task_start, "task-start"); (Task_end, "task-end"); (Spawn, "spawn");
     (Steal_attempt, "steal-attempt"); (Steal_commit, "steal-commit");
     (Steal_abort, "steal-abort"); (Lost_continuation, "lost-continuation");
     (Suspend, "suspend"); (Resume, "resume"); (Stack_acquire, "stack-acquire");
     (Stack_release, "stack-release"); (Park, "park"); (Unpark, "unpark");
     (Req_submit, "req-submit"); (Req_claim, "req-claim");
     (Req_handoff, "req-handoff"); (Req_apply, "req-apply"); (Req_done, "req-done") |]

let () =
  Array.iteri
    (fun i (k, _) -> if to_int k <> i then invalid_arg "Event.table: rows out of order")
    table

let of_int n =
  if n >= 0 && n < Array.length table then fst table.(n)
  else invalid_arg (Printf.sprintf "Event.of_int: %d" n)

let name k = snd table.(to_int k)

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
