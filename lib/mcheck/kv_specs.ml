(* Harnesses over the shipped KV store: lib/server/kv.ml compiled
   against traced.ml, so every [Atomic] operation of [Kv.exec] (the
   flag claims, mailbox pushes and drains, outcome cells) is a
   scheduling point and the code that runs is the code that ships.  The
   dune rules compile this file once per copy of the store, the shipped
   one and each generated mutant, with [Kv] bound to that copy.

   A scenario runs one [Kv.exec] per checker thread on a store of two
   shards with one bucket each, from empty.  The final state passes
   when:
   - every call returned: a caller still blocked is a lost request or
     a deadlock;
   - the outcomes and the store's bindings are those of some serial
     order of the calls (they all overlap, so any order is a legal
     linearisation);
   - the store is quiescent: mailboxes empty, admission depths 0,
     flags free. *)

module Cell = Mcheck.Cell

(* The smallest key that lives on [shard]. *)
let key_on kv shard =
  let rec go k = if Kv.shard_of_key kv k = shard then k else go (k + 1) in
  go 0

(* The calls of each scenario, given a key on shard 0 and one on 1:
   - [`Points]: two point ops race for one shard (one claims it idle,
     the other pushes, or both push);
   - [`Multi_point]: a multi-key op over both shards races a point op
     on the second, so either may find the second flag held: the
     multi-key op waits for it, the point op queues behind it;
   - [`Multi_overlap]: the same op races a multi-key op on the second
     shard alone;
   - [`Multi_span]: two multi-key ops over both shards, where a
     Multi_get must never see half a Multi_put.  The Multi_get lists
     its keys in the opposite order: the footprint sorts them, and a
     copy that claims in key order deadlocks here. *)
let calls scenario k0 k1 =
  let put = Kv.Multi_put [| (k0, 1); (k1, 2) |] in
  match scenario with
  | `Points -> [ Kv.Add (k0, 1); Kv.Add (k0, 10) ]
  | `Multi_point -> [ put; Kv.Add (k1, 10) ]
  | `Multi_overlap -> [ put; Kv.Multi_get [| k1 |] ]
  | `Multi_span -> [ put; Kv.Multi_get [| k1; k0 |] ]

(* A sequential reference: each call's outcome and the final bindings
   when the calls run one after another in [order]. *)
let serially calls order =
  let tbl = Hashtbl.create 8 in
  let run = function
    | Kv.Get k -> (
      match Hashtbl.find_opt tbl k with Some v -> Kv.Hit v | None -> Kv.Miss)
    | Kv.Put (k, v) ->
      Hashtbl.replace tbl k v;
      Kv.Ack
    | Kv.Add (k, d) ->
      let v = d + Option.value ~default:0 (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k v;
      Kv.Hit v
    | Kv.Multi_get ks -> Kv.Many (Array.map (Hashtbl.find_opt tbl) ks)
    | Kv.Multi_put kvs ->
      Array.iter (fun (k, v) -> Hashtbl.replace tbl k v) kvs;
      Kv.Ack
  in
  let outs = Array.make (List.length calls) Kv.Pending in
  List.iter (fun i -> outs.(i) <- run (List.nth calls i)) order;
  (outs, List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) tbl []))

let rec orders = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun o -> x :: o) (orders (List.filter (( <> ) x) l)))
      l

let quiescent (kv : Kv.t) =
  Array.for_all
    (fun (s : Kv.shard) ->
      (match Cell.peek s.mail with [] -> true | _ :: _ -> false)
      && Cell.peek s.depth = 0
      && not (Cell.peek s.combining))
    kv.shards_

let spec scenario () =
  let kv = Kv.create ~shards:2 ~buckets_per_shard:1 () in
  let calls = calls scenario (key_on kv 0) (key_on kv 1) in
  let n = List.length calls in
  let outs = Array.make n None in
  let thread i op () = outs.(i) <- Some (Kv.exec kv op) in
  let invariant () =
    Array.for_all Option.is_some outs
    && quiescent kv
    &&
    let got = Array.map Option.get outs in
    let bindings = List.sort compare (Kv.fold (fun k v l -> (k, v) :: l) kv []) in
    List.exists
      (fun order -> serially calls order = (got, bindings))
      (orders (List.init n Fun.id))
  in
  (List.mapi thread calls, invariant)
