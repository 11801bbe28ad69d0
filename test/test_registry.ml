(* Tests of the protocol registry: the name table parses every spelling
   to exactly one protocol, and the facts other modules keep about a
   protocol (report names, metric labels, rule sets, live adapters)
   agree with its entry. *)

module Registry = Optimist_protocols.Registry
module Runner = Optimist_runner.Runner
module Worker = Optimist_live.Worker
module Check = Optimist_check.Check
module Metrics = Optimist_obs.Metrics
module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Process = Optimist_core.Process
module System = Optimist_core.System
module Traffic = Optimist_workload.Traffic

let spellings e = e.Registry.name :: e.Registry.aliases

let test_every_spelling_parses () =
  List.iter
    (fun id ->
      let e = Registry.entry id in
      List.iter
        (fun s ->
          Alcotest.(check (option string))
            (Printf.sprintf "%S parses to %s" s e.name)
            (Some e.name)
            (Option.map Registry.name (Registry.of_string s)))
        (spellings e))
    Registry.all;
  Alcotest.(check (option string)) "unknown spelling" None
    (Option.map Registry.name (Registry.of_string "not-a-protocol"))

(* The live commands reject the simulator-only protocols with one line
   that names the live set. *)
let test_live_parse () =
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun id ->
      let e = Registry.entry id in
      List.iter
        (fun s ->
          match (Registry.parse ~live:true s, List.mem id Registry.live) with
          | Ok id', true ->
              Alcotest.(check string) (s ^ " parses live") e.name (Registry.name id')
          | Error msg, false ->
              Alcotest.(check bool) (s ^ ": one line") false (String.contains msg '\n');
              List.iter
                (fun live ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: error names %s" s (Registry.name live))
                    true
                    (contains msg (Registry.name live)))
                Registry.live
          | Ok _, false -> Alcotest.failf "%S accepted as a live protocol" s
          | Error msg, true -> Alcotest.failf "%S rejected: %s" s msg)
        (spellings e))
    Registry.all

let test_spellings_unique () =
  let all = List.concat_map (fun id -> spellings (Registry.entry id)) Registry.all in
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "%S names one protocol" s)
        1
        (List.length (List.filter (String.equal s) all)))
    all;
  Alcotest.(check int) "ids are distinct"
    (List.length Registry.all)
    (List.length (List.sort_uniq compare Registry.all))

let test_name_roundtrip () =
  List.iter
    (fun id ->
      let name = Registry.name id in
      Alcotest.(check bool)
        (Printf.sprintf "%s -> id -> name" name)
        true
        (Registry.of_string name = Some id))
    Registry.all

let scope_label scope = (Metrics.Scope.labels scope).Metrics.protocol

(* The simulated report and every metric scope of a run carry the
   canonical name. *)
let test_sim_names_match () =
  List.iter
    (fun id ->
      let name = Registry.name id in
      let r =
        Runner.run
          { Runner.default_params with Runner.protocol = id; duration = 40.0 }
      in
      Alcotest.(check string) (name ^ ": r_protocol") name r.Runner.r_protocol;
      let scopes = Metrics.scopes r.Runner.r_registry in
      Alcotest.(check bool) (name ^ ": has scopes") true (scopes <> []);
      List.iter
        (fun ((l : Metrics.labels), _) ->
          Alcotest.(check string) (name ^ ": scope label") name l.protocol)
        scopes)
    Registry.all

(* A process built without a caller-supplied scope labels its own: each
   baseline's default, the core process's and System's default. *)
let test_default_labels_match () =
  let engine () = Engine.create ~seed:1L () in
  let net_config = Network.default_config ~n:2 in
  let app = Traffic.app ~n:2 Traffic.Uniform in
  List.iter
    (fun id ->
      match (Registry.entry id).sim with
      | Registry.Core _ -> ()
      | Registry.Baseline (module P) ->
          let engine = engine () in
          let net = P.make_net engine net_config in
          let p = P.create ~engine ~net ~app ~id:0 ~n:2 ~next_uid:(fun () -> 1) () in
          Alcotest.(check string)
            (Registry.name id ^ ": default scope label")
            (Registry.name id)
            (scope_label (P.metrics p)))
    Registry.all;
  let dg = Registry.name Registry.Damani_garg in
  let engine = engine () in
  let net = Network.create engine net_config in
  let p = Process.create ~engine ~net ~app ~id:0 ~n:2 ~next_uid:(fun () -> 1) () in
  Alcotest.(check string) "core process default label" dg
    (scope_label (Process.metrics p));
  let registry = Metrics.registry () in
  ignore (System.create ~registry ~n:2 ~app ());
  List.iter
    (fun ((l : Metrics.labels), _) ->
      Alcotest.(check string) "System default label" dg l.protocol)
    (Metrics.scopes registry)

let subset ~of_ l = List.for_all (fun x -> List.mem x of_) l

let test_rules_declared () =
  List.iter
    (fun id ->
      let e = Registry.entry id in
      Alcotest.(check bool) (e.name ^ ": sim rules are rules") true
        (e.sim_rules <> [] && subset ~of_:Check.all_ids e.sim_rules);
      match e.live_rules with
      | None -> ()
      | Some rules ->
          Alcotest.(check bool) (e.name ^ ": live rules are offline rules") true
            (rules <> [] && subset ~of_:Check.offline_ids rules))
    Registry.all

let test_live_set_is_adapter_set () =
  Alcotest.(check (list string)) "live ids = ids with a live adapter"
    (List.map Registry.name Registry.live)
    (List.map Registry.name (List.filter Worker.has_adapter Registry.all))

let suite =
  [
    Alcotest.test_case "every canonical name and alias parses" `Quick
      test_every_spelling_parses;
    Alcotest.test_case "live parsing rejects simulator-only protocols" `Quick
      test_live_parse;
    Alcotest.test_case "no spelling names two protocols" `Quick
      test_spellings_unique;
    Alcotest.test_case "name -> id -> name round-trips" `Quick
      test_name_roundtrip;
    Alcotest.test_case "sim report and scope labels use the name" `Quick
      test_sim_names_match;
    Alcotest.test_case "default scope labels use the name" `Quick
      test_default_labels_match;
    Alcotest.test_case "declared rules are known rules" `Quick
      test_rules_declared;
    Alcotest.test_case "live set matches the live adapters" `Quick
      test_live_set_is_adapter_set;
  ]
