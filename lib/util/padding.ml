let cache_line_words = 8

(* [size] real fields, then the padding.  [Obj.new_block] fills every
   field with [()], so the padding is scannable and keeps nothing alive. *)
let padded_block size = Obj.new_block 0 (size + cache_line_words)

(* An [Atomic.t] is a one-field, tag-0 block: get, set, CAS and
   fetch-and-add address field 0 whatever the block's size. *)
let atomic v =
  let b = padded_block 1 in
  Obj.set_field b 0 (Obj.repr v);
  Obj.obj b

let isolate f =
  let o = Obj.repr (f ()) in
  if Obj.tag o <> 0 then invalid_arg "Padding.isolate: not a record";
  let b = padded_block (Obj.size o) in
  for i = 0 to Obj.size o - 1 do
    Obj.set_field b i (Obj.field o i)
  done;
  Obj.obj b
