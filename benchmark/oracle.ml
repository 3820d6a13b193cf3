(* KV output check.

   Provenance: every value the schedule stores names its key and the
   request that wrote it ([value ~key ~writer]; writer 0 is the preload).
   A read is correct when each value it returns decodes to its own key
   and to a request whose operation wrote exactly that value there — so a
   value from another key, an invented value or a torn multi-get fails,
   without keeping a per-key history.  Keys are preloaded and never
   deleted, so only keys the schedule inserts may read as missing. *)

module Kv = Nowa_server.Kv

let writer_bits = 24

let value ~key ~writer = (key lsl writer_bits) lor writer

let provenance (ops : Kv.op array) key v =
  v lsr writer_bits = key
  &&
  let writer = v land ((1 lsl writer_bits) - 1) in
  writer = 0
  || writer <= Array.length ops
     &&
     match ops.(writer - 1) with
     | Kv.Put (k, w) -> k = key && w = v
     | _ -> false

(** [kv_outcome ~records ops op outcome]: is [outcome] a correct answer
    to [op]?  [ops] is the whole schedule (request [i] is writer [i+1]);
    keys below [records] were preloaded. *)
let kv_outcome ~records ops (op : Kv.op) (outcome : Kv.outcome) =
  let found key = function
    | Some v -> provenance ops key v
    | None -> key >= records
  in
  match (op, outcome) with
  | Kv.Get k, Kv.Hit v -> found k (Some v)
  | Kv.Get k, Kv.Miss -> found k None
  | Kv.Put _, Kv.Ack -> true
  | Kv.Multi_get keys, Kv.Many vs ->
    Array.length keys = Array.length vs
    && Array.for_all2 (fun k v -> found k v) keys vs
  | _ -> false
