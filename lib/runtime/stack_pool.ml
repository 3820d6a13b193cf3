type stack = {
  stack_id : int;
  mutable resident : int;
  mutable accounted : int;
  mutable shrunk : bool;  (* pages were returned by a simulated madvise *)
}

type t = {
  conf : Config.t;
  lock : Nowa_sync.Spinlock.t;
  mutable global : stack list;  (* protected by [lock] *)
  caches : stack list ref array;  (* owner-only local caches *)
  next_id : int Atomic.t;
  allocated : int Atomic.t;  (* stacks ever created *)
  live : int Atomic.t;  (* stacks currently checked out *)
  rss : int Atomic.t;
  max_rss : int Atomic.t;
  madvises : int Atomic.t;
  refaults : int Atomic.t;
  pool_hits : int Atomic.t;
}

(* Pool-lock contention gets its own histogram, distinct from the frame
   locks': the cholesky bottleneck of Section V-A is exactly this lock. *)
let lock_spins =
  Nowa_obs.Registry.histogram "nowa_stacks_lock_spins"
    ~help:
      "Spin-relax rounds per contended global stack-pool lock acquisition."

let create conf =
  {
    conf;
    lock = Nowa_sync.Spinlock.create ~spins:lock_spins ();
    global = [];
    caches = Array.init conf.Config.workers (fun _ -> ref []);
    next_id = Atomic.make 0;
    allocated = Atomic.make 0;
    live = Atomic.make 0;
    rss = Atomic.make 0;
    max_rss = Atomic.make 0;
    madvises = Atomic.make 0;
    refaults = Atomic.make 0;
    pool_hits = Atomic.make 0;
  }

let bump_watermark t =
  let cur = Atomic.get t.rss in
  let rec loop () =
    let m = Atomic.get t.max_rss in
    if cur > m && not (Atomic.compare_and_set t.max_rss m cur) then loop ()
  in
  loop ()

let sync_rss t stack =
  let delta = stack.resident - stack.accounted in
  if delta <> 0 then begin
    ignore (Atomic.fetch_and_add t.rss delta);
    stack.accounted <- stack.resident;
    if delta > 0 then bump_watermark t
  end

(* Pages per simulated stack: 1 MiB / 4 KiB. *)
let stack_pages = 256

let touch stack ~pages =
  stack.resident <- Int.min stack_pages (stack.resident + pages)

(* Modelled madvise(MADV_FREE): pay the syscall/page-table cost and drop
   residency to the one page still backing the suspended frame. *)
let madvise t stack =
  if stack.resident > 1 then begin
    Atomic.incr t.madvises;
    Nowa_util.Clock.spin_ns t.conf.Config.madvise_cost_ns;
    stack.resident <- 1;
    stack.shrunk <- true;
    sync_rss t stack
  end

let fresh t =
  ignore (Atomic.fetch_and_add t.allocated 1);
  let s =
    {
      stack_id = Atomic.fetch_and_add t.next_id 1;
      resident = 1;
      accounted = 0;
      shrunk = false;
    }
  in
  sync_rss t s;
  s

(* MADV_DONTNEED drops the page contents, so the next use of a shrunk
   stack refaults its working pages; MADV_FREE keeps them reusable. *)
let refault t s =
  if s.shrunk then begin
    s.shrunk <- false;
    if t.conf.Config.madvise_mode = Config.Madv_dontneed then begin
      Atomic.incr t.refaults;
      Nowa_util.Clock.spin_ns t.conf.Config.refault_ns
    end
  end

(* Free stacks a worker keeps in front of the global pool. *)
let local_cache_depth = 4

let acquire_stack t ~worker =
  let cache = t.caches.(worker) in
  match !cache with
  | s :: rest ->
    cache := rest;
    refault t s;
    s
  | [] ->
    Atomic.incr t.pool_hits;
    Nowa_sync.Spinlock.acquire t.lock;
    let taken =
      match t.global with
      | s :: rest ->
        t.global <- rest;
        Some s
      | [] -> None
    in
    Nowa_sync.Spinlock.release t.lock;
    match taken with
    | Some s ->
      refault t s;
      s
    | None -> fresh t

let acquire t ~worker =
  let s = acquire_stack t ~worker in
  ignore (Atomic.fetch_and_add t.live 1);
  s

let release t ~worker stack =
  ignore (Atomic.fetch_and_add t.live (-1));
  sync_rss t stack;
  if t.conf.Config.madvise then madvise t stack;
  let cache = t.caches.(worker) in
  if List.length !cache < local_cache_depth then
    cache := stack :: !cache
  else begin
    Nowa_sync.Spinlock.acquire t.lock;
    t.global <- stack :: t.global;
    Nowa_sync.Spinlock.release t.lock
  end

let suspend t stack =
  sync_rss t stack;
  if t.conf.Config.madvise then madvise t stack

let reactivate = refault

let allocated_stacks t = Atomic.get t.allocated
let live_stacks t = Atomic.get t.live
let current_rss_pages t = Atomic.get t.rss
let max_rss_pages t = Atomic.get t.max_rss
let madvise_calls t = Atomic.get t.madvises
let refault_count t = Atomic.get t.refaults
let global_pool_hits t = Atomic.get t.pool_hits
