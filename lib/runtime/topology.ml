(* Pool-topology normalisation shared by every engine: turn a
   [Config.t] into a validated array of pool specs with global worker-id
   ranges.  Validation happens here, once, before any domain is spawned
   or the runtime guard is entered, so a bad topology raises
   [Invalid_argument] without leaking runtime state. *)

type spec = {
  name : string;
  lo : int;  (* first global worker id of this pool *)
  hi : int;  (* one past the last global worker id *)
}

let validate_pool ~name ~workers =
  if String.length name = 0 then
    invalid_arg "Nowa pool topology: pool names must be non-empty";
  if workers < 1 then
    invalid_arg
      (Printf.sprintf "Nowa pool topology: pool %S needs at least 1 worker"
         name);
  if workers > Sleepers.mask_bits then
    invalid_arg
      (Printf.sprintf
         "Nowa pool topology: pool %S has %d workers, more than the sleeper \
          registry's %d-bit mask; split it into smaller pools"
         name workers Sleepers.mask_bits)

let of_config (conf : Config.t) =
  match conf.Config.pools with
  | [] ->
    let workers = Int.max 1 conf.Config.workers in
    validate_pool ~name:"main" ~workers;
    [| { name = "main"; lo = 0; hi = workers } |]
  | pools ->
    let seen = Hashtbl.create 8 in
    let off = ref 0 in
    let specs =
      List.map
        (fun (p : Config.pool_conf) ->
          validate_pool ~name:p.Config.pc_name ~workers:p.Config.pc_workers;
          if Hashtbl.mem seen p.Config.pc_name then
            invalid_arg
              (Printf.sprintf "Nowa pool topology: duplicate pool name %S"
                 p.Config.pc_name);
          Hashtbl.add seen p.Config.pc_name ();
          let lo = !off in
          off := lo + p.Config.pc_workers;
          { name = p.Config.pc_name; lo; hi = !off })
        pools
    in
    Array.of_list specs

let total specs = specs.(Array.length specs - 1).hi

let group_of specs worker =
  let rec go i =
    if i >= Array.length specs then
      invalid_arg
        (Printf.sprintf "Nowa pool topology: worker %d outside all pools"
           worker)
    else if worker < specs.(i).hi then i
    else go (i + 1)
  in
  go 0
