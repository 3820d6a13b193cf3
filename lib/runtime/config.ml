type victim_policy = Random | Round_robin
type madvise_mode = Madv_free | Madv_dontneed
type idle_policy = Spin | Yield_after of int | Park_after of int

type pool_conf = {
  pc_name : string;
  pc_workers : int;
}

type t = {
  workers : int;
  victim_policy : victim_policy;
  seed : int;
  madvise : bool;
  madvise_cost_ns : int;
  madvise_mode : madvise_mode;
  refault_ns : int;
  trace_capacity : int;
  idle_policy : idle_policy;
  steal_sweep : int;
  watchdog_interval_ms : int;
  watchdog_stall_scans : int;
  watchdog_dump : bool;
  pools : pool_conf list;
  spill_over : bool;
}

let default () =
  {
    (* Clamped to the sleeper registry's bitmask width: a pool larger
       than [Sleepers.mask_bits] is rejected loudly at construction, and
       the implicit single pool built from the default must stay valid
       on very wide hosts. *)
    workers = Int.min (Nowa_util.Cpu.default_workers ()) Sleepers.mask_bits;
    victim_policy = Random;
    seed = 0x5eed;
    madvise = false;
    madvise_cost_ns = 2_000;
    madvise_mode = Madv_free;
    refault_ns = 1_000;
    trace_capacity = 0;
    idle_policy = Park_after 512;
    steal_sweep = 2;
    watchdog_interval_ms = 0;
    watchdog_stall_scans = 2;
    watchdog_dump = true;
    pools = [];
    spill_over = false;
  }

let with_workers n = { (default ()) with workers = Int.max 1 n }

let pool name ~workers = { pc_name = name; pc_workers = workers }
