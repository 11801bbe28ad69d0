module Prng = Optimist_util.Prng
module Json = Optimist_obs.Json
module Registry = Optimist_protocols.Registry
module Plan = Optimist_live.Plan
module Link = Optimist_live.Link

(* One randomized fault scenario, decided entirely by (campaign seed,
   scenario index): everything a live run needs — size, traffic shape,
   SIGKILL schedule, network-fault plan — is drawn from a PRNG derived
   from those two numbers, so a failing scenario is reproducible from
   its replay token alone and the shrinker can emit strictly simpler
   variants of the same record. *)

type kill = { kl_at : float; kl_pid : int }

type partition = { pr_start : float; pr_stop : float; pr_island : int list }

type t = {
  sc_seed : int64;
  sc_index : int;
  sc_protocol : Registry.id;
  sc_n : int;
  sc_duration : float;
  sc_settle : float;
  sc_rate : float;
  sc_hops : int;
  sc_restart_delay : float;
  sc_kills : kill list;
  sc_drop : float;
  sc_dup : float;
  sc_partitions : partition list;
}

(* Mix the campaign seed with the index through SplitMix's odd constant
   so adjacent indices get statistically unrelated streams. *)
let rng_of ~seed ~index =
  Prng.create
    (Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (index + 1))))

let round2 x = Float.round (x *. 100.0) /. 100.0

let generate ~seed ~index ~protocol =
  let rng = rng_of ~seed ~index in
  let n = 3 + Prng.int rng 3 in
  let duration = round2 (1.2 +. Prng.float rng 0.8) in
  let rate = round2 (4.0 +. Prng.float rng 6.0) in
  let hops = 2 + Prng.int rng 3 in
  let restart_delay = round2 (0.2 +. Prng.float rng 0.2) in
  let kill_count = 1 + Prng.int rng 2 in
  let kills =
    List.init kill_count (fun _ ->
        {
          kl_at = round2 (0.2 +. Prng.float rng (0.55 *. duration));
          kl_pid = Prng.int rng n;
        })
    |> List.sort compare
  in
  (* Duplicate datagrams are only injected for the paper's protocol: its
     uid-based history filter discards them (Lemma 4); the baselines make
     no such promise and a wire-level dup would trip their own
     duplicate-delivery rules through no protocol fault. *)
  let dup =
    if protocol = Registry.Damani_garg && Prng.bool rng then round2 (Prng.float rng 0.05)
    else 0.0
  in
  let drop = if Prng.bool rng then round2 (Prng.float rng 0.05) else 0.0 in
  let partitions =
    if Prng.bool rng then
      let start = round2 (0.3 +. Prng.float rng (0.4 *. duration)) in
      [
        {
          pr_start = start;
          pr_stop = round2 (start +. 0.15 +. Prng.float rng 0.2);
          pr_island = [ Prng.int rng n ];
        };
      ]
    else []
  in
  {
    sc_seed = seed;
    sc_index = index;
    sc_protocol = protocol;
    sc_n = n;
    sc_duration = duration;
    sc_settle = 1.0;
    sc_rate = rate;
    sc_hops = hops;
    sc_restart_delay = restart_delay;
    sc_kills = kills;
    sc_drop = drop;
    sc_dup = dup;
    sc_partitions = partitions;
  }

let plan ~seed ~count ~protocols =
  if count < 1 then invalid_arg "scenario count must be at least 1";
  if protocols = [] then invalid_arg "protocol list must not be empty";
  let protos = Array.of_list protocols in
  List.init count (fun index ->
      generate ~seed ~index ~protocol:protos.(index mod Array.length protos))

(* --- shrinking ---

   Candidates are strict simplifications: each one reduces the measure
   (kills, partitions, drop, dup) lexicographically, so a shrink descent
   terminates and can only make the scenario smaller. *)

let measure t =
  ( List.length t.sc_kills,
    List.length t.sc_partitions,
    t.sc_drop,
    t.sc_dup )

let shrink_candidates t =
  let drop_nth l n = List.filteri (fun i _ -> i <> n) l in
  let without_kill =
    (* Keep at least one kill: a scenario with no crash exercises
       nothing the soak is hunting for. *)
    if List.length t.sc_kills <= 1 then []
    else
      List.mapi
        (fun i _ -> { t with sc_kills = drop_nth t.sc_kills i })
        t.sc_kills
  in
  let without_partition =
    List.mapi
      (fun i _ -> { t with sc_partitions = drop_nth t.sc_partitions i })
      t.sc_partitions
  in
  (* Rates are quantized to 2 decimals, so halving 0.01 rounds back to
     itself — below that, zeroing is the only strict simplification. *)
  let less_drop =
    if t.sc_drop = 0.0 then []
    else if t.sc_drop <= 0.01 then [ { t with sc_drop = 0.0 } ]
    else [ { t with sc_drop = 0.0 }; { t with sc_drop = round2 (t.sc_drop /. 2.0) } ]
  in
  let less_dup =
    if t.sc_dup = 0.0 then []
    else if t.sc_dup <= 0.01 then [ { t with sc_dup = 0.0 } ]
    else [ { t with sc_dup = 0.0 }; { t with sc_dup = round2 (t.sc_dup /. 2.0) } ]
  in
  without_kill @ without_partition @ less_drop @ less_dup

(* --- JSON round-trip --- *)

(* Records and tokens carry the canonical name; any alias reads back, so
   artifacts written with the older short live spellings still replay. *)
let live_protocol = Registry.parse ~live:true

let to_json t =
  Json.Obj
    [
      ("seed", Json.String (Int64.to_string t.sc_seed));
      ("index", Json.Int t.sc_index);
      ("protocol", Json.String (Registry.name t.sc_protocol));
      ("n", Json.Int t.sc_n);
      ("duration", Json.Float t.sc_duration);
      ("settle", Json.Float t.sc_settle);
      ("rate", Json.Float t.sc_rate);
      ("hops", Json.Int t.sc_hops);
      ("restart_delay", Json.Float t.sc_restart_delay);
      ( "kills",
        Json.List
          (List.map
             (fun k ->
               Json.Obj
                 [ ("at", Json.Float k.kl_at); ("pid", Json.Int k.kl_pid) ])
             t.sc_kills) );
      ("drop", Json.Float t.sc_drop);
      ("dup", Json.Float t.sc_dup);
      ( "partitions",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("start", Json.Float p.pr_start);
                   ("stop", Json.Float p.pr_stop);
                   ( "island",
                     Json.List (List.map (fun i -> Json.Int i) p.pr_island) );
                 ])
             t.sc_partitions) );
    ]

let of_json j =
  let ( let* ) = Option.bind in
  let field name conv = Option.bind (Json.mem name j) conv in
  let result =
    let* seed = field "seed" Json.string_value in
    let* seed = Int64.of_string_opt seed in
    let* index = field "index" Json.to_int in
    let* protocol = field "protocol" Json.string_value in
    let* protocol = Result.to_option (live_protocol protocol) in
    let* n = field "n" Json.to_int in
    let* duration = field "duration" Json.to_float in
    let* settle = field "settle" Json.to_float in
    let* rate = field "rate" Json.to_float in
    let* hops = field "hops" Json.to_int in
    let* restart_delay = field "restart_delay" Json.to_float in
    let* kills = field "kills" Json.list_value in
    let* kills =
      List.fold_right
        (fun k acc ->
          let* acc = acc in
          let* at = Option.bind (Json.mem "at" k) Json.to_float in
          let* pid = Option.bind (Json.mem "pid" k) Json.to_int in
          Some ({ kl_at = at; kl_pid = pid } :: acc))
        kills (Some [])
    in
    let* drop = field "drop" Json.to_float in
    let* dup = field "dup" Json.to_float in
    let* partitions = field "partitions" Json.list_value in
    let* partitions =
      List.fold_right
        (fun p acc ->
          let* acc = acc in
          let* start = Option.bind (Json.mem "start" p) Json.to_float in
          let* stop = Option.bind (Json.mem "stop" p) Json.to_float in
          let* island = Option.bind (Json.mem "island" p) Json.list_value in
          let* island =
            List.fold_right
              (fun i acc ->
                let* acc = acc in
                let* i = Json.to_int i in
                Some (i :: acc))
              island (Some [])
          in
          Some ({ pr_start = start; pr_stop = stop; pr_island = island } :: acc))
        partitions (Some [])
    in
    Some
      {
        sc_seed = seed;
        sc_index = index;
        sc_protocol = protocol;
        sc_n = n;
        sc_duration = duration;
        sc_settle = settle;
        sc_rate = rate;
        sc_hops = hops;
        sc_restart_delay = restart_delay;
        sc_kills = kills;
        sc_drop = drop;
        sc_dup = dup;
        sc_partitions = partitions;
      }
  in
  match result with
  | Some t -> Ok t
  | None -> Error "malformed scenario record"

let replay_token t =
  Printf.sprintf "%Ld:%d:%s" t.sc_seed t.sc_index (Registry.name t.sc_protocol)

(* A replay token regenerates the scenario from scratch; a shrunk
   (minimal) scenario is not reachable from any token, so it is replayed
   from its JSON artifact instead — [of_token] accepts both. *)
let of_token s =
  if Sys.file_exists s then begin
    let ic = open_in s in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match Json.of_string line with
    | Ok j -> of_json j
    | Error msg -> Error (Printf.sprintf "%s: %s" s msg)
  end
  else
    match String.split_on_char ':' s with
    | [ seed; index; protocol ] -> (
        match (Int64.of_string_opt seed, int_of_string_opt index) with
        | Some seed, Some index when index >= 0 ->
            Result.map
              (fun protocol -> generate ~seed ~index ~protocol)
              (live_protocol protocol)
        | _ ->
            Error
              (Printf.sprintf "expected SEED:INDEX:PROTOCOL or a scenario file, got %S" s)
        )
    | _ ->
        Error
          (Printf.sprintf "expected SEED:INDEX:PROTOCOL or a scenario file, got %S"
             s)

(* The live plan of a scenario. The run seed is derived, so the same
   scenario (and its shrunk variants, which keep seed and index) replays
   the same workload. *)
let live_plan t =
  {
    Plan.default with
    n = t.sc_n;
    protocol = t.sc_protocol;
    seed = Int64.add t.sc_seed (Int64.of_int (t.sc_index + 1));
    duration = t.sc_duration;
    settle = t.sc_settle;
    rate = t.sc_rate;
    hops = t.sc_hops;
    kills = List.map (fun k -> (k.kl_at, k.kl_pid)) t.sc_kills;
    net_faults =
      {
        Link.drop_rate = t.sc_drop;
        dup_rate = t.sc_dup;
        partitions =
          List.map
            (fun p ->
              {
                Link.pt_start = p.pr_start;
                pt_stop = p.pr_stop;
                pt_island = p.pr_island;
              })
            t.sc_partitions;
      };
    restart_delay = t.sc_restart_delay;
  }
