(* Benchmark driver.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads: sim-dg-n32 and live-uds-closed. Every run
   checks its outputs (correctness gates) and ends with one JSON line
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0; with --trace 1 the run is made twice, untraced then
   traced, and the per-layer metrics of the traced run are printed with
   the tracing overhead on every end-to-end metric. Scratch files go
   under .bench_run/ in the working directory. *)

module Json = Optimist_obs.Json
module Merge = Optimist_live.Merge
module Worker = Optimist_live.Worker
module Check = Optimist_check.Check

let workloads = [ "sim-dg-n32"; "live-uds-closed" ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (sim-dg-n32|live-uds-closed) --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let num f k = match f (get k) with Some v -> v | None -> usage () in
  let seed = num Int64.of_string_opt "seed" in
  let seconds = num float_of_string_opt "seconds" in
  let trace = get "trace" in
  if seconds <= 0.0 || (trace <> "0" && trace <> "1") then usage ();
  (workload, seed, seconds, trace = "1")

let run_root = ".bench_run"

(* --- live workload: metrics from the workers' records ---------------- *)

let live_outcome ~seed ~seconds ~traced =
  (* Only the latest run of each mode is kept on disk. *)
  let root =
    Filename.concat run_root
      (Printf.sprintf "live-uds-closed.%s" (if traced then "traced" else "plain"))
  in
  let r = Live_wl.run ~root ~seed ~seconds ~traced in
  let s = r.Live_wl.summary in
  let ms l = List.map (fun x -> x *. 1e3) l in
  let lats = ms r.Live_wl.latencies in
  let st = r.Live_wl.stretches in
  let total g = List.fold_left (fun a x -> a +. g x) 0.0 st in
  let d = total (fun x -> x.Live_wl.d) in
  let rate_cal = d /. total (fun x -> x.Live_wl.dt *. x.Live_wl.f) in
  let rate_raw = d /. total (fun x -> x.Live_wl.dt) in
  let cpu_cal = total (fun x -> x.Live_wl.cpu *. x.Live_wl.f) /. d in
  let cpu_raw = total (fun x -> x.Live_wl.cpu) /. d in
  let raw_lats = ms r.Live_wl.raw_latencies in
  let completed = List.length lats in
  let e2e =
    [
      ("delivered_per_s", rate_cal, "msg/s");
      ("chain_latency_p50_ms", Pb.percentile 0.5 lats, "ms");
      ("chain_latency_p95_ms", Pb.percentile 0.95 lats, "ms");
      ("completed_ratio", float_of_int completed /. float_of_int (max 1 r.Live_wl.started), "ratio");
      ("recovery_ms_p50", Pb.median (ms r.Live_wl.recoveries), "ms");
      ("outage_ms_p50", Pb.median (ms r.Live_wl.outages), "ms");
      ("cpu_ms_per_kdeliv", cpu_cal *. 1e6, "ms");
      ("peak_rss_mb", r.Live_wl.peak_rss_mb, "MB");
      ("setup_s", Pb.median r.Live_wl.setups, "s");
    ]
  in
  let gates = ref [] in
  List.iter (fun e -> gates := ("live.chains", e) :: !gates) r.Live_wl.dup_errors;
  List.iter (fun e -> gates := ("live.exit", e) :: !gates) r.Live_wl.unclean;
  if List.length r.Live_wl.recoveries <> r.Live_wl.kills_done then
    gates := ("live.recovery", "a successor did not report its recovery") :: !gates;
  if List.length r.Live_wl.outages <> r.Live_wl.kills_done then
    gates := ("live.outage", "a successor delivered no message") :: !gates;
  if traced then
    (* Each mesh's merged trace must lint clean under the live
       Damani-Garg rule set. *)
    List.iter
      (fun dir ->
        let merged = Filename.concat dir "merged.jsonl" in
        let events, dropped = Merge.run ~dir ~out:merged in
        let fail e = gates := ("live.lint", dir ^ ": " ^ e) :: !gates in
        if events = 0 then fail "the merged trace has no events";
        if dropped > 0 then fail (Printf.sprintf "%d unparsable trace lines at merge" dropped);
        match Check.Lint.run ~only:(Worker.live_check_rules Worker.Dg) merged with
        | Error e -> fail e
        | Ok rep ->
            if rep.Check.Lint.parse_errors > 0 then
              fail
                (Printf.sprintf "%d unparsable lines in the merged trace"
                   rep.Check.Lint.parse_errors);
            if rep.Check.Lint.violations <> [] then
              fail
                (Printf.sprintf "%d violations in the merged trace"
                   (List.length rep.Check.Lint.violations)))
      r.Live_wl.dirs;
  let rounded k = Printf.sprintf "%.0f" (Pb.sum s k) in
  {
    Pb.e2e;
    attempted = r.Live_wl.started;
    failed = r.Live_wl.dup_chains;
    gates = !gates;
    info =
      [
        ("chains_started", string_of_int r.Live_wl.started);
        ("chains_completed", string_of_int completed);
        ("chains_lost", string_of_int (r.Live_wl.started - completed));
        ("window_stretches", string_of_int (List.length st));
        ("raw_delivered_per_s", Printf.sprintf "%.1f" rate_raw);
        ("raw_cpu_ms_per_kdeliv", Printf.sprintf "%.3f" (cpu_raw *. 1e6));
        ("raw_chain_latency_p50_ms", Printf.sprintf "%.4f" (Pb.percentile 0.5 raw_lats));
        ("raw_chain_latency_p95_ms", Printf.sprintf "%.4f" (Pb.percentile 0.95 raw_lats));
        ("window_unit_ms", Printf.sprintf "%.3f" (Pb.Calib.unit_s /. Pb.median (List.map (fun x -> x.Live_wl.f) st) *. 1e3));
        ("raw_recovery_ms_p50", Printf.sprintf "%.1f" (Pb.median (ms r.Live_wl.raw_recoveries)));
        ("chains_late", rounded "late");
        ("link_send_errors", rounded "link.send_errors");
        ("data_sent", rounded "data_sent");
        ("data_received", rounded "data_recv");
        ("deliveries_in_window", rounded "deliveries_window");
        ("kills", string_of_int r.Live_wl.kills_done);
        ("recovery_ms", String.concat "," (List.map (Printf.sprintf "%.1f") (ms r.Live_wl.recoveries)));
        ("outage_ms", String.concat "," (List.map (Printf.sprintf "%.1f") (ms r.Live_wl.outages)));
        ("setup_ms", String.concat "," (List.map (Printf.sprintf "%.2f") (ms r.Live_wl.setups)));
      ];
  }, s

(* --- per-layer metrics ---------------------------------------------------- *)

let layer_metrics (s : Pb.summary) ~extra =
  let sp = Pb.span_of s in
  let self k = (sp k).Pb.Rec.self in
  let calls k = float_of_int (sp k).Pb.Rec.calls in
  let p99_us k =
    let h = (sp k).Pb.Rec.hist in
    if Pb.Histogram.count h = 0 then 0.0 else Pb.Histogram.quantile h 0.99 *. 1e6
  in
  let v k = match List.assoc_opt k extra with Some x -> x | None -> Pb.sum s k in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let made = v "delivered" +. v "injected" in
  [
    ("process.handle_calls", calls "process.handle", "count");
    ("process.handle_self_s", self "process.handle", "s");
    ("process.handle_p99_us", p99_us "process.handle", "us");
    ("process.timer_self_s", self "process.timer", "s");
    ("process.piggyback_words_per_msg", ratio (v "piggyback_words") (v "sent"), "words");
    ("process.history_records", v "history_records", "count");
    ("process.discarded_obsolete", v "discarded_obsolete", "count");
    ("process.rollbacks", v "rollbacks", "count");
    ("process.replayed", v "replayed", "count");
    ("process.useful_ratio", (if made > 0.0 then 1.0 -. (v "log_truncated" /. made) else 0.0), "ratio");
    ("process.recover_s", (sp "process.recover").Pb.Rec.total, "s");
    ("app.self_s", self "app", "s");
    ("engine.events", v "engine.events", "count");
    ("engine.self_s", self "engine.run", "s");
    ("network.send_calls", calls "network.send", "count");
    ("network.send_self_s", self "network.send", "s");
    ("link.send_calls", calls "link.send", "count");
    ("link.send_self_s", self "link.send", "s");
    ("link.send_p99_us", p99_us "link.send", "us");
    ("link.sent_data", v "link.sent_data", "count");
    ("link.send_errors", v "link.send_errors", "count");
    ("link.delivery_ratio", ratio (v "data_recv") (v "data_sent"), "ratio");
    ("link.retransmits", v "link.retransmits", "count");
    ("store.append_log_calls", calls "store.append_log", "count");
    ("store.append_log_self_s", self "store.append_log", "s");
    ("store.append_log_p99_us", p99_us "store.append_log", "us");
    ("store.checkpoint_self_s", self "store.checkpoint", "s");
    ("store.tokens_self_s", self "store.tokens", "s");
    ("store.bytes_written", v "store.bytes_written", "B");
    ("store.load_log_s", (sp "store.load_log").Pb.Rec.total, "s");
    ("store.load_checkpoints_s", (sp "store.load_checkpoints").Pb.Rec.total, "s");
    ("store.truncate_log_s", (sp "store.truncate_log").Pb.Rec.total, "s");
    ("store.bytes_reread", v "bytes_reread", "B");
    ("store.log_entries_loaded", v "entries_loaded", "count");
    ("loop.self_s", v "loop.self_s", "s");
    ("trace.emit_self_s", self "trace.emit", "s");
  ]

let measure workload ~seed ~seconds ~traced =
  match workload with
  | "sim-dg-n32" ->
      let o, counts = Sim_wl.measure ~seed ~seconds ~traced in
      if traced then Pb.Rec.dump (Filename.concat run_root "sim-dg-n32.spans.tsv");
      let s = Pb.new_summary () in
      Hashtbl.iter (fun k a -> Pb.merge_agg s k a) Pb.Rec.aggs;
      (o, layer_metrics s ~extra:counts)
  | _ ->
      let o, s = live_outcome ~seed ~seconds ~traced in
      (o, layer_metrics s ~extra:[])

(* --- output ------------------------------------------------------------------ *)

(* A metric with no samples (NaN) is written as 0 and fails the run. *)
let metric_json l =
  Json.Obj
    (List.map
       (fun (k, v, unit) ->
         let v = if Float.is_finite v then v else 0.0 in
         (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       l)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload, seed, seconds, trace = parse_args () in
  if not (Sys.file_exists run_root) then Unix.mkdir run_root 0o755;
  let plain, _ = measure workload ~seed ~seconds ~traced:false in
  let result, metrics =
    if not trace then (plain, plain.Pb.e2e)
    else begin
      let traced, layer = measure workload ~seed ~seconds ~traced:true in
      let overhead =
        List.map2
          (fun (k, a, _) (_, b, _) ->
            ("trace.overhead." ^ k, (if a <> 0.0 then (b -. a) /. a else 0.0), "ratio"))
          plain.Pb.e2e traced.Pb.e2e
      in
      ({ traced with Pb.gates = plain.Pb.gates @ traced.Pb.gates }, layer @ overhead)
    end
  in
  let result =
    let missing = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
    {
      result with
      Pb.gates =
        result.Pb.gates
        @ List.map (fun (k, _, _) -> ("metrics", k ^ " has no samples")) missing;
    }
  in
  let host = Pb.host_facts () in
  let record =
    Json.Obj
      [
        ("workload", Json.String workload);
        ("seed", Json.String (Int64.to_string seed));
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace);
        ("host", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) host));
        ("info", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) result.Pb.info));
        ( "gates_failed",
          Json.List
            (List.map (fun (g, d) -> Json.String (g ^ ": " ^ d)) result.Pb.gates) );
        ("metrics", metric_json metrics);
      ]
  in
  let oc =
    open_out (Filename.concat run_root (Printf.sprintf "result.%s.%s.json" workload (if trace then "traced" else "plain")))
  in
  output_string oc (Json.to_string record);
  output_char oc '\n';
  close_out oc;
  List.iter (fun (k, v) -> Printf.printf "host %-16s %s\n" k v) host;
  List.iter (fun (k, v) -> Printf.printf "info %-24s %s\n" k v) result.Pb.info;
  List.iter (fun (g, d) -> Printf.printf "GATE FAILED %s: %s\n" g d) result.Pb.gates;
  List.iter (fun (k, v, u) -> Printf.printf "%-34s %14.6g %s\n" k v u) metrics;
  let correct = result.Pb.gates = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int result.Pb.attempted);
            ("failed", Json.Int result.Pb.failed);
            ("metrics", metric_json metrics);
          ]));
  exit (if correct then 0 else 1)
