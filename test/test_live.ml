(* Tests of the live runtime: the wall-clock loop, the datagram
   transport, the on-disk store, trace merging, and one end-to-end
   supervised run with a real SIGKILL. *)

module Loop = Optimist_live.Loop
module Link = Optimist_live.Link
module Livenet = Optimist_live.Livenet
module Store = Optimist_live.Store
module Merge = Optimist_live.Merge
module Supervisor = Optimist_live.Supervisor
module Plan = Optimist_live.Plan
module Coordinator = Optimist_cluster.Coordinator
module Registry = Optimist_protocols.Registry
module Transport = Optimist_core.Transport
module Trace = Optimist_obs.Trace
module Json = Optimist_obs.Json
module Check = Optimist_check.Check
module Process = Optimist_core.Process
module Types = Optimist_core.Types
module Ftvc = Optimist_clock.Ftvc

let tmp_counter = ref 0

(* Keep paths short: AF_UNIX socket paths are limited to ~107 bytes. *)
let temp_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "optlive-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

(* --- loop --- *)

let test_loop_timers_in_order () =
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let fired = ref [] in
  Loop.schedule loop ~delay:0.03 (fun () -> fired := 3 :: !fired);
  Loop.schedule loop ~delay:0.01 (fun () -> fired := 1 :: !fired);
  Loop.schedule loop ~delay:0.02 (fun () -> fired := 2 :: !fired);
  Loop.run loop ~until:0.1;
  Alcotest.(check (list int)) "fired by due time" [ 1; 2; 3 ]
    (List.rev !fired)

let test_loop_now_monotone () =
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let prev = ref (Loop.now loop) in
  for _ = 1 to 100 do
    let t = Loop.now loop in
    if t < !prev then Alcotest.fail "now went backwards";
    prev := t
  done

(* --- store --- *)

let test_store_roundtrip () =
  let dir = Filename.concat (temp_dir ()) "st" in
  let st = Store.open_ dir in
  List.iter (Store.append_log st) [ "a"; "b"; "c"; "d" ];
  Store.append_checkpoint st ~position:0 100;
  Store.append_checkpoint st ~position:3 200;
  Store.write_tokens st [ 7; 8 ];
  Store.write_gen st 2;
  Store.close st;
  let st = Store.open_ dir in
  Alcotest.(check (array string)) "log" [| "a"; "b"; "c"; "d" |]
    (Store.load_log st);
  Alcotest.(check (list (pair int int)))
    "checkpoints newest first"
    [ (200, 3); (100, 0) ]
    (Store.load_checkpoints st);
  Alcotest.(check (list int)) "tokens" [ 7; 8 ] (Store.load_tokens st);
  Alcotest.(check int) "gen" 2 (Store.load_gen st);
  Store.truncate_log st ~stable:2;
  Store.discard_checkpoints_after st ~position:1;
  Alcotest.(check (array string)) "truncated" [| "a"; "b" |] (Store.load_log st);
  Alcotest.(check (list (pair int int)))
    "discarded" [ (100, 0) ]
    (Store.load_checkpoints st);
  Store.close st

let test_store_torn_tail () =
  (* A SIGKILL mid-append leaves a torn trailing record; loading must
     return the complete prefix and appends must keep working. *)
  let dir = Filename.concat (temp_dir ()) "st" in
  let st = Store.open_ dir in
  Store.append_log st "one";
  Store.append_log st "two";
  Store.close st;
  let log = Filename.concat dir "log.bin" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 log in
  let bytes = Marshal.to_bytes "torn" [] in
  output_bytes oc (Bytes.sub bytes 0 (Bytes.length bytes - 3));
  close_out oc;
  let st = Store.open_ dir in
  Alcotest.(check (array string)) "torn tail dropped" [| "one"; "two" |]
    (Store.load_log st);
  Store.close st

(* --- Damani-Garg stable state through the store --- *)

(* A transport with no fabric: sends vanish, and the test hands frames to
   the process's handler itself. *)
let bare_net () =
  let handler = ref (fun _ -> ()) in
  ( {
      Transport.send = (fun ~lane:_ ~src:_ ~dst:_ _ -> ());
      broadcast = (fun ~lane:_ ~src:_ _ -> ());
      set_handler = (fun _ f -> handler := f);
      set_down = (fun _ -> ());
      set_up = (fun ~drop_held_data:_ _ -> ());
    },
    fun w -> !handler w )

(* An application message from P1 (incarnation 0) to P0. *)
let from_p1 ~uid data =
  Types.Wire_app
    {
      Types.data;
      clock = Ftvc.entries (Ftvc.sent (Ftvc.create ~n:2 ~me:1));
      frontier = [||];
      sender = 1;
      uid;
    }

let dg_p0 ?stable ?restore app =
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let net, push = bare_net () in
  let uids = ref 0 in
  let p =
    Process.create_rt ~rt:(Loop.runtime loop) ~net ~app ~id:0 ~n:2 ?stable
      ?restore
      ~next_uid:(fun () ->
        incr uids;
        !uids)
      ()
  in
  (p, push)

(* A checkpoint holds no per-delivery data: its marshalled record (what
   the store appends to cps.bin) is the same size after 100 and after
   10 000 deliveries. *)
let test_checkpoint_size_constant () =
  let size = ref 0 in
  let stable =
    {
      Process.null_hooks with
      checkpoint_recorded =
        (fun ~position cp ->
          size := String.length (Marshal.to_string (position, cp) []));
    }
  in
  let counter =
    { Types.init = (fun _ -> 0); on_message = (fun ~me:_ ~src:_ k () -> (k + 1, [])) }
  in
  let p, push = dg_p0 ~stable counter in
  let deliver ~from ~until =
    for uid = from to until - 1 do
      push (from_p1 ~uid:(1_000 + uid) ())
    done
  in
  deliver ~from:0 ~until:100;
  Process.checkpoint_now p;
  let after_100 = !size in
  deliver ~from:100 ~until:10_000;
  Process.checkpoint_now p;
  Alcotest.(check int) "all delivered" 10_000 (Process.state p);
  Alcotest.(check bool)
    (Printf.sprintf "size %d B after 100, %d B after 10000" after_100 !size)
    true
    (abs (!size - after_100) <= 16)

(* After a restart from the on-disk image, a resent message that is in the
   stable log is a duplicate; one that was only in the lost volatile tail
   is delivered. *)
let test_image_restart_dedup () =
  let dir = Filename.concat (temp_dir ()) "dd" in
  let store = ref (Store.open_ dir) in
  let stable =
    {
      Process.log_appended = (fun es -> List.iter (Store.append_log !store) es);
      log_truncated = (fun ~stable -> Store.truncate_log !store ~stable);
      checkpoint_recorded =
        (fun ~position cp -> Store.append_checkpoint !store ~position cp);
      checkpoints_discarded_after =
        (fun ~position -> Store.discard_checkpoints_after !store ~position);
      tokens_logged = (fun tokens -> Store.write_tokens !store tokens);
    }
  in
  let app =
    { Types.init = (fun _ -> []); on_message = (fun ~me:_ ~src:_ s m -> (m :: s, [])) }
  in
  let p, push = dg_p0 ~stable app in
  push (from_p1 ~uid:1001 "logged");
  Process.flush_now p;
  push (from_p1 ~uid:1002 "volatile");
  Alcotest.(check (list string)) "before the crash" [ "volatile"; "logged" ]
    (Process.state p);
  (* SIGKILL: the volatile tail is gone; rebuild from what is on disk. *)
  Store.close !store;
  store := Store.open_ dir;
  let image =
    {
      Process.im_log = Store.load_log !store;
      im_checkpoints = Store.load_checkpoints !store;
      im_tokens = Store.load_tokens !store;
    }
  in
  let q, push = dg_p0 ~stable ~restore:image app in
  Process.recover q;
  Alcotest.(check (list string)) "replayed" [ "logged" ] (Process.state q);
  push (from_p1 ~uid:1001 "logged");
  push (from_p1 ~uid:1002 "volatile");
  Alcotest.(check (list string)) "resends" [ "volatile"; "logged" ]
    (Process.state q);
  Alcotest.(check int) "one duplicate" 1
    (Option.value ~default:0
       (List.assoc_opt "duplicates_dropped" (Process.counters q)));
  Store.close !store

(* --- livenet (the lane table over both pipes is in lanes.ml) --- *)

let test_livenet_oversized_datagram () =
  (* A datagram longer than any frame the pipe delivers — here a 300 KB
     control frame written straight to the peer's socket, past the
     sender-side size check — arrives truncated: the receiver counts it
     as a bad frame instead of letting it vanish, and nothing is
     delivered or acked. *)
  let dir = temp_dir () in
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let f = Livenet.factory ~dir ~n:2 ~seed:7L () in
  let b = f.Link.make ~loop ~me:1 ~gen:0 ~jitter:(0.001, 0.02) in
  let got = ref 0 in
  b.Link.transport.Transport.set_handler 1 (fun _ -> incr got);
  let frame =
    Lanes.forge
      (Lanes.Ctl_msg { src = 0; seq = 1; payload = String.make 300_000 'x' })
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
  ignore
    (Unix.sendto fd frame 0 (Bytes.length frame) []
       (Unix.ADDR_UNIX (Livenet.sock_path dir 1)));
  Unix.close fd;
  Loop.run loop ~until:0.25;
  let stat (l : _ Link.t) k = List.assoc k (l.Link.stats ()) in
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "truncated datagram counted" 1 (stat b "bad_frames");
  Alcotest.(check int) "not received as a frame" 0 (stat b "received");
  b.Link.close ()

(* --- merge --- *)

let test_merge_orders_and_deduplicates_headers () =
  let dir = temp_dir () in
  let write name events =
    let oc = open_out (Filename.concat dir name) in
    let tr = Trace.create () in
    Trace.attach tr
      (Trace.jsonl_sink (fun line ->
           output_string oc line;
           flush oc));
    List.iter (Trace.emit tr) events;
    Trace.close tr;
    close_out oc
  in
  let ev at pid kind = { Trace.at; pid; ver = 0; clock = [||]; kind } in
  (* The Deliver at t=0.5 is written before the Send with the same stamp
     and lives in the other process's file; the merge must put the Send
     first. *)
  write "trace.0.g0.jsonl"
    [
      ev 0.5 0 (Trace.Send { uid = 9; dst = 1 });
      ev 0.9 0 (Trace.Checkpoint { position = 0 });
    ];
  write "trace.1.g0.jsonl"
    [
      ev 0.5 1 (Trace.Deliver { uid = 9; src = 0 });
      ev 0.1 1 (Trace.Log_flush { stable = 0 });
    ];
  let out = Filename.concat dir "merged.jsonl" in
  let events, dropped = Merge.run ~dir ~out in
  Alcotest.(check int) "all events merged" 4 events;
  Alcotest.(check int) "nothing dropped" 0 dropped;
  let kinds =
    Trace.fold_file out ~init:[] ~f:(fun acc ~line:_ -> function
      | Ok e -> Trace.kind_name e.Trace.kind :: acc
      | Error msg -> Alcotest.fail msg)
    |> List.rev
  in
  Alcotest.(check (list string))
    "one header, sends before same-stamp delivers"
    [ "custom"; "log_flush"; "send"; "deliver"; "checkpoint" ]
    kinds

let write_trace dir name events =
  let oc = open_out (Filename.concat dir name) in
  let tr = Trace.create () in
  Trace.attach tr
    (Trace.jsonl_sink (fun line ->
         output_string oc line;
         flush oc));
  List.iter (Trace.emit tr) events;
  Trace.close tr;
  close_out oc

let merged_kinds dir =
  let out = Filename.concat dir "merged.jsonl" in
  let _ = Merge.run ~dir ~out in
  Trace.fold_file out ~init:[] ~f:(fun acc ~line:_ -> function
    | Ok e -> e :: acc
    | Error msg -> Alcotest.fail msg)
  |> List.rev

let test_merge_identical_timestamps_stable () =
  (* Records carrying the very same wall-clock stamp must still come out
     in a stable order: same cause rank ties break by pid, and within one
     process by emission order. *)
  let dir = temp_dir () in
  let ev at pid kind = { Trace.at; pid; ver = 0; clock = [||]; kind } in
  write_trace dir "trace.1.g0.jsonl" [ ev 0.5 1 (Trace.Checkpoint { position = 7 }) ];
  write_trace dir "trace.0.g0.jsonl"
    [
      ev 0.5 0 (Trace.Log_flush { stable = 1 });
      ev 0.5 0 (Trace.Log_flush { stable = 2 });
    ];
  let payload e =
    match e.Trace.kind with
    | Trace.Log_flush { stable } -> (e.Trace.pid, stable)
    | Trace.Checkpoint { position } -> (e.Trace.pid, position)
    | _ -> (-1, -1)
  in
  let events =
    List.filter (fun e -> Trace.schema_of_event e = None) (merged_kinds dir)
  in
  Alcotest.(check (list (pair int int)))
    "pid then emission order under an exact tie"
    [ (0, 1); (0, 2); (1, 7) ]
    (List.map payload events)

let test_merge_orders_generations_numerically () =
  (* trace.0.g10 must be read after trace.0.g2 — a lexicographic file
     sort would interleave incarnations and scramble same-stamp ties. *)
  let dir = temp_dir () in
  let ev at pid kind = { Trace.at; pid; ver = 0; clock = [||]; kind } in
  write_trace dir "trace.0.g10.jsonl" [ ev 1.0 0 (Trace.Log_flush { stable = 10 }) ];
  write_trace dir "trace.0.g2.jsonl" [ ev 1.0 0 (Trace.Log_flush { stable = 2 }) ];
  let stables =
    List.filter_map
      (fun e ->
        match e.Trace.kind with
        | Trace.Log_flush { stable } -> Some stable
        | _ -> None)
      (merged_kinds dir)
  in
  Alcotest.(check (list int)) "older incarnation first" [ 2; 10 ] stables

(* --- end to end: real processes, real SIGKILL --- *)

let lint_clean path =
  match Check.Lint.run ~only:[] ~ignore:[] path with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      Alcotest.(check int) "lint errors" 0 (Check.Lint.errors report);
      Alcotest.(check int) "lint warnings" 0 (Check.Lint.warnings report);
      Alcotest.(check int) "parse errors" 0 report.Check.Lint.parse_errors

(* The keys of a single-host run.json, in file order. *)
let single_host_run_keys =
  [
    "protocol"; "telemetry"; "n"; "seed"; "duration"; "settle"; "rate";
    "hops"; "faults"; "drop_rate"; "dup_rate"; "partitions"; "crashes";
    "clean_exits"; "events"; "dropped_lines"; "generations";
  ]

let run_json_keys dir =
  let ic = open_in (Supervisor.run_file dir) in
  let line = input_line ic in
  close_in ic;
  match Json.of_string line with
  | Ok (Json.Obj kvs) -> List.map fst kvs
  | _ -> Alcotest.failf "%s is not a JSON object" (Supervisor.run_file dir)

(* A three-worker run with one SIGKILL at 0.7 s. *)
let crash_plan protocol =
  {
    Plan.default with
    n = 3;
    protocol;
    seed = 42L;
    duration = 1.6;
    settle = 1.2;
    rate = 6.0;
    hops = 3;
    kills = [ (0.7, 1) ];
  }

let run_ok ~dir plan =
  match Supervisor.run ~dir plan with
  | Ok r -> r
  | Error msg -> Alcotest.failf "live run refused: %s" msg

let test_supervised_run_with_crash () =
  let dir = temp_dir () in
  let r = run_ok ~dir (crash_plan Registry.Damani_garg) in
  Alcotest.(check (list string)) "run.json keys" single_host_run_keys
    (run_json_keys dir);
  Alcotest.(check int) "one crash injected" 1 r.Supervisor.crashes;
  Alcotest.(check int) "every final incarnation exits clean" 3
    r.Supervisor.clean_exits;
  Alcotest.(check bool) "events recorded" true (r.Supervisor.events > 50);
  (* The killed worker's successor must actually have recovered: its
     trace contains a restart of incarnation >= 1. *)
  let restarted = ref false in
  Trace.iter_file r.Supervisor.merged ~f:(fun ~line:_ -> function
    | Ok { Trace.pid = 1; kind = Trace.Restart { new_ver }; _ }
      when new_ver >= 1 ->
        restarted := true
    | _ -> ());
  Alcotest.(check bool) "worker 1 restarted" true !restarted;
  (* Telemetry over the same recovery: the successor incarnation wraps
     its catch-up in a "recovery" span and emits one snapshot with the
     recovery.* profile. Replay happens below the tracer (replayed
     deliveries are not re-traced), so the replay count is checked
     against the worker's own stats file, not against Deliver events. *)
  let rec_span = ref None and rec_snap = ref None in
  Trace.iter_file r.Supervisor.merged ~f:(fun ~line:_ -> function
    | Ok { Trace.pid = 1; kind = Trace.Span { name = "recovery"; dur }; _ } ->
        rec_span := Some dur
    | Ok { Trace.pid = 1; kind = Trace.Snapshot { values; _ }; _ }
      when List.mem_assoc "recovery.latency" values ->
        rec_snap := Some values
    | _ -> ());
  (match !rec_span with
  | Some dur ->
      Alcotest.(check bool) "recovery span latency positive" true (dur > 0.0)
  | None -> Alcotest.fail "no recovery span for the killed worker");
  (match !rec_snap with
  | None -> Alcotest.fail "no recovery snapshot for the killed worker"
  | Some values ->
      let v name =
        match List.assoc_opt name values with
        | Some x -> x
        | None -> Alcotest.failf "recovery snapshot lacks %s" name
      in
      Alcotest.(check bool) "snapshot latency positive" true
        (v "recovery.latency" > 0.0);
      Alcotest.(check (float 1e-9)) "snapshot names the generation" 1.0
        (v "gen");
      let replayed = int_of_float (v "recovery.messages_replayed") in
      let ic = open_in (Filename.concat dir "worker.1.g1.json") in
      let stats = input_line ic in
      close_in ic;
      let stats_replayed =
        match Json.of_string stats with
        | Error m -> Alcotest.failf "worker stats unparsable: %s" m
        | Ok j -> (
            match
              Option.bind (Json.mem "counters" j) (fun c ->
                  Option.bind (Json.mem "replayed" c) Json.to_int)
            with
            | Some n -> n
            | None -> Alcotest.fail "worker stats lack counters.replayed")
      in
      Alcotest.(check int) "replay count agrees with the stats file"
        stats_replayed replayed);
  Alcotest.(check bool) "chrome timeline written" true
    (Sys.file_exists r.Supervisor.chrome);
  lint_clean r.Supervisor.merged

(* Every baseline ported to the live runtime must survive a real SIGKILL
   mid-run: the successor incarnation recovers from its store, every
   final incarnation exits clean, and the merged trace passes the full
   offline rule battery in strict mode (errors and warnings both zero). *)
let baseline_survives_crash protocol () =
  let r = run_ok ~dir:(temp_dir ()) (crash_plan protocol) in
  Alcotest.(check int) "one crash injected" 1 r.Supervisor.crashes;
  Alcotest.(check int) "every final incarnation exits clean" 3
    r.Supervisor.clean_exits;
  let restarted = ref false in
  Trace.iter_file r.Supervisor.merged ~f:(fun ~line:_ -> function
    | Ok { Trace.pid = 1; kind = Trace.Restart { new_ver }; _ }
      when new_ver >= 1 ->
        restarted := true
    | _ -> ());
  Alcotest.(check bool) "worker 1 restarted" true !restarted;
  lint_clean r.Supervisor.merged

(* The plan validator, one row per refusal. Every carrier reports the
   same one-line message: [Plan.validate] itself, [Supervisor.run] (which
   adds the sun_path check of its directory) and the cluster
   coordinator, before any agent is contacted. *)
let test_supervisor_validates () =
  let d = Plan.default in
  let partition pt_start pt_stop pt_island =
    { d with
      net_faults =
        { Link.no_faults with partitions = [ { Link.pt_start; pt_stop; pt_island } ] } }
  in
  let one_line name = function
    | Ok _ -> Alcotest.failf "%s accepted" name
    | Error msg ->
        Alcotest.(check bool) (name ^ ": one-line error") false
          (String.contains msg '\n' || msg = "");
        msg
  in
  List.iter
    (fun (name, plan) -> ignore (one_line name (Plan.validate plan)))
    [
      ("n=1", { d with n = 1 });
      ("simulator-only protocol", { d with protocol = Registry.Peterson_kearns });
      ("zero duration", { d with duration = 0.0 });
      ("negative settle", { d with settle = -0.5 });
      ("zero rate", { d with rate = 0.0 });
      ("zero restart delay", { d with restart_delay = 0.0 });
      ("bad fault pid", { d with kills = [ (1.0, 9) ] });
      ("fault after window", { d with kills = [ (99.0, 0) ] });
      ("drop = 1", { d with net_faults = { Link.no_faults with drop_rate = 1.0 } });
      ("dup = 1", { d with net_faults = { Link.no_faults with dup_rate = 1.0 } });
      ("empty partition window", partition 1.0 1.0 [ 0 ]);
      ("empty partition island", partition 0.5 1.0 []);
      ("partition pid out of range", partition 0.5 1.0 [ 7 ]);
    ];
  (let long = Filename.concat (String.make 120 'x') "run" in
   let msg = one_line "dir overflows sun_path" (Supervisor.run ~dir:long d) in
   let contains hay needle =
     let nh = String.length hay and nn = String.length needle in
     let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
     go 0
   in
   Alcotest.(check bool) "error names the limit" true (contains msg "sun_path");
   Alcotest.(check bool) "nothing created" false (Sys.file_exists long));
  (let bad = { d with kills = [ (1.0, 9) ] } in
   let out = Filename.concat (temp_dir ()) "cl" in
   let msg =
     one_line "cluster run with a bad fault pid"
       (Coordinator.run_forked ~agents:2 { Coordinator.default_cfg with plan = bad; out })
   in
   Alcotest.(check (result unit string)) "the validator's message"
     (Error msg) (Plan.validate bad);
   Alcotest.(check bool) "no agent forked, nothing written" false
     (Sys.file_exists out));
  Alcotest.(check (result unit string)) "default plan valid" (Ok ())
    (Plan.validate d)

let suite =
  [
    Alcotest.test_case "loop: timers fire in order" `Quick
      test_loop_timers_in_order;
    Alcotest.test_case "loop: clock is monotone" `Quick test_loop_now_monotone;
    Alcotest.test_case "store: round-trip" `Quick test_store_roundtrip;
    Alcotest.test_case "store: torn tail tolerated" `Quick test_store_torn_tail;
    Alcotest.test_case "dg: checkpoint size independent of deliveries" `Quick
      test_checkpoint_size_constant;
    Alcotest.test_case "dg: duplicate filter after an image restart" `Quick
      test_image_restart_dedup;
    Alcotest.test_case "livenet: oversized datagram is a bad frame" `Quick
      test_livenet_oversized_datagram;
    Alcotest.test_case "merge: global order and single header" `Quick
      test_merge_orders_and_deduplicates_headers;
    Alcotest.test_case "merge: identical timestamps keep a stable order" `Quick
      test_merge_identical_timestamps_stable;
    Alcotest.test_case "merge: generations ordered numerically" `Quick
      test_merge_orders_generations_numerically;
    Alcotest.test_case "supervised run with SIGKILL recovery" `Slow
      test_supervised_run_with_crash;
    Alcotest.test_case "sender-based survives SIGKILL, lints strict" `Slow
      (baseline_survives_crash Registry.Sender_based);
    Alcotest.test_case "strom-yemini survives SIGKILL, lints strict" `Slow
      (baseline_survives_crash Registry.Strom_yemini);
    Alcotest.test_case "checkpoint-only survives SIGKILL, lints strict" `Slow
      (baseline_survives_crash Registry.Checkpoint_only);
    Alcotest.test_case "coordinated survives SIGKILL, lints strict" `Slow
      (baseline_survives_crash Registry.Coordinated);
    Alcotest.test_case "supervisor validates parameters" `Quick
      test_supervisor_validates;
  ]
  @ Lanes.suite Lanes.uds
