(* The metric and workload declarations of BENCHMARK.json. *)

type kind =
  | E2e  (** end to end, from untraced runs; gated, with a bound *)
  | Layer  (** one layer, from the traced run; not gated *)
  | Diag  (** printed and compared in both modes, in no gate *)

type metric = {
  name : string;
  unit : string;
  kind : kind;
  higher : bool;  (** "better": "higher" *)
  bound : float option;  (** [Some] exactly for [E2e] *)
}

let json = Json.parse Declared.json

let declared key kind =
  List.map
    (fun m ->
      let field k = Json.to_string (Json.member k m) in
      {
        name = field "name";
        unit = field "unit";
        kind;
        higher = String.equal (field "better") "higher";
        bound =
          (if kind = E2e then Some (Json.to_float (Json.member "bound" m)) else None);
      })
    (Json.to_list (Json.member key json))

let metrics = declared "end_to_end" E2e @ declared "per_layer" Layer

let workloads =
  Json.member "workloads" json |> Json.to_list
  |> List.map (fun w -> Json.to_string (Json.member "name" w))
