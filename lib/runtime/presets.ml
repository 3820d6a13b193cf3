module Nowa =
  Engine.Make (Nowa_deque.Chase_lev.Make) (Nowa_sync.Wait_free_counter)
    (struct
      let name = "nowa"

      let description =
        "continuation stealing, wait-free strand counter, Chase-Lev deque"
    end)

module Nowa_the =
  Engine.Make (Nowa_deque.The_queue.Make) (Nowa_sync.Wait_free_counter)
    (struct
      let name = "nowa-the"

      let description =
        "continuation stealing, wait-free strand counter, THE deque"
    end)

module Nowa_abp =
  Engine.Make (Nowa_deque.Abp.Make) (Nowa_sync.Wait_free_counter)
    (struct
      let name = "nowa-abp"

      let description =
        "continuation stealing, wait-free strand counter, ABP deque"
    end)

module Fibril =
  Engine.Make (Nowa_deque.The_queue.Make) (Nowa_sync.Lock_counter)
    (struct
      let name = "fibril"

      let description =
        "continuation stealing, lock-based strand counter, THE deque"
    end)

module Cilk_plus =
  Engine.Make (Nowa_deque.Locked_deque.Make) (Nowa_sync.Lock_counter)
    (struct
      let name = "cilkplus"

      let description =
        "continuation stealing, lock-based strand counter, locked deque"
    end)

module Untied =
  Child_engine.Deques (Nowa_deque.Locked_deque.Make)
    (struct
      let waiting = Child_engine.Waiting.Steal_anywhere
    end)

module Tbb =
  Child_engine.Make (Untied)
    (struct
      let name = "tbb"
      let description = "child stealing, locked per-worker deques"
    end)

module Lomp_untied =
  Child_engine.Make (Untied)
    (struct
      let name = "lomp-untied"

      let description =
        "child stealing (libomp model), waiters steal anywhere (untied tasks)"
    end)

module Lomp_tied =
  Child_engine.Make
    (Child_engine.Deques (Nowa_deque.Locked_deque.Make)
       (struct
         let waiting = Child_engine.Waiting.Local_only
       end))
    (struct
      let name = "lomp-tied"

      let description =
        "child stealing (libomp model), waiters pinned to their own deque \
         (tied tasks)"
    end)

module Gomp =
  Child_engine.Make (Child_engine.Fifo)
    (struct
      let name = "gomp"
      let description = "single global locked FIFO task queue (libgomp model)"
    end)

let all : (module Runtime_intf.S) list =
  [
    (module Nowa);
    (module Nowa_the);
    (module Nowa_abp);
    (module Fibril);
    (module Cilk_plus);
    (module Tbb);
    (module Lomp_untied);
    (module Lomp_tied);
    (module Gomp);
  ]

let find name =
  let matches (module R : Runtime_intf.S) = String.equal R.name name in
  match List.find_opt matches all with
  | Some r -> r
  | None -> raise Not_found

let figure7_set =
  [ find "nowa"; find "fibril"; find "cilkplus"; find "tbb" ]

let figure10_set =
  [ find "nowa"; find "tbb"; find "gomp"; find "lomp-untied"; find "lomp-tied" ]
