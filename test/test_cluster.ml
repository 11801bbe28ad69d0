(* Tests of the cluster subsystem: the TCP pipe's own behaviour
   (reconnection, large-frame reassembly, heartbeat metrics; the lane
   table it shares with the UDS pipe is in lanes.ml), the coordinator's pid
   partitioning, the agent protocol plumbing, and one end-to-end
   two-agent localhost cluster run with a real SIGKILL. *)

module Loop = Optimist_live.Loop
module Link = Optimist_live.Link
module Tcplink = Optimist_cluster.Tcplink
module Coordinator = Optimist_cluster.Coordinator
module Plan = Optimist_live.Plan
module Transport = Optimist_core.Transport
module Trace = Optimist_obs.Trace
module Check = Optimist_check.Check
module Validate = Optimist_util.Validate

let tmp_counter = ref 0

let temp_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "optclu-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let port_base = Lanes.port_base

(* One incarnation of worker [me] on a two-worker TCP mesh at [base]. *)
let tcp ?(gen = 0) loop base me : string Link.t =
  (Tcplink.factory ~endpoints:(Lanes.endpoints base 2) ~n:2 ~seed:35L ())
    .Link.make ~loop ~me ~gen ~jitter:(0.001, 0.02)

let on (l : string Link.t) me f = l.Link.transport.Transport.set_handler me f

let send (l : string Link.t) lane m =
  l.Link.transport.Transport.send ~lane ~src:0 ~dst:1 m

let test_tcp_reconnects_after_peer_restart () =
  (* Tear the receiving end down mid-conversation and bring a new
     incarnation up on the same port: the sender's failure detector must
     rebuild the connection (visible as reconnects > 0) and control
     traffic queued across the outage must arrive exactly once. *)
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let base = port_base () in
  let a = tcp loop base 0 and b = tcp loop base 1 in
  on a 0 ignore;
  let got = ref [] in
  on b 1 (fun m -> got := m :: !got);
  Alcotest.(check bool) "initial mesh up" true (a.Link.ready ~timeout:5.0);
  send a Transport.Control "before";
  Loop.run loop ~until:0.3;
  Alcotest.(check (list string)) "first frame arrives" [ "before" ] !got;
  b.Link.close ();
  (* Queued while the peer is dead: a real outage, not a quiet queue. *)
  send a Transport.Control "during";
  Loop.run loop ~until:0.6;
  let b' = tcp ~gen:1 loop base 1 in
  let got' = ref [] in
  on b' 1 (fun m -> got' := m :: !got');
  Alcotest.(check bool) "mesh heals" true (a.Link.ready ~timeout:5.0);
  Loop.run loop ~until:1.5;
  Alcotest.(check (list string)) "outage-spanning control arrives once"
    [ "during" ] !got';
  Alcotest.(check int) "nothing left unacked" 0 (a.Link.unacked ());
  Alcotest.(check bool) "reconnect counted" true
    (List.assoc "reconnects" (a.Link.stats ()) > 0);
  a.Link.close ();
  b'.Link.close ()

let test_tcp_large_frame () =
  (* A payload far bigger than any single read(2) must reassemble
     through the length-prefixed framing. *)
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let base = port_base () in
  let a = tcp loop base 0 and b = tcp loop base 1 in
  Alcotest.(check bool) "mesh connects" true (a.Link.ready ~timeout:5.0);
  let payload = String.init 300_000 (fun i -> Char.chr (i mod 251)) in
  let got = ref None in
  on b 1 (fun m -> got := Some m);
  on a 0 ignore;
  send a Transport.Control payload;
  Loop.run loop ~until:0.6;
  (match !got with
  | Some m -> Alcotest.(check bool) "payload intact" true (String.equal m payload)
  | None -> Alcotest.fail "large frame not delivered");
  a.Link.close ();
  b.Link.close ()

let test_tcp_snapshot_has_link_metrics () =
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let base = port_base () in
  let a = tcp loop base 0 and b = tcp loop base 1 in
  Alcotest.(check bool) "mesh connects" true (a.Link.ready ~timeout:5.0);
  on a 0 ignore;
  on b 1 ignore;
  send a Transport.Data "x";
  Loop.run loop ~until:0.8;
  let snap = a.Link.snapshot () in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true (List.mem_assoc key snap))
    [ "link.frames_sent"; "link.bytes_sent"; "link.connects";
      "link.hb_rtt_ms.count"; "link.hb_rtt_ms.p95" ];
  Alcotest.(check bool) "heartbeats measured" true
    (List.assoc "link.hb_rtt_ms.count" snap > 0.0);
  a.Link.close ();
  b.Link.close ()

(* --- coordinator plumbing --- *)

let test_blocks_partition_pids () =
  Alcotest.(check (list (list int)))
    "5 over 2" [ [ 0; 1; 2 ]; [ 3; 4 ] ]
    (Coordinator.blocks ~n:5 ~k:2);
  Alcotest.(check (list (list int)))
    "4 over 4" [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ]
    (Coordinator.blocks ~n:4 ~k:4);
  Alcotest.(check (list (list int)))
    "7 over 3" [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ]
    (Coordinator.blocks ~n:7 ~k:3)

let test_host_port_parses () =
  List.iter
    (fun (input, expect) ->
      match (Validate.host_port input, expect) with
      | Ok got, Some want ->
          Alcotest.(check (pair string int)) input want got
      | Error _, None -> ()
      | Ok _, None -> Alcotest.failf "%S accepted" input
      | Error msg, Some _ -> Alcotest.failf "%S rejected: %s" input msg)
    [
      ("localhost:7800", Some ("localhost", 7800));
      ("10.0.0.2:1", Some ("10.0.0.2", 1));
      ("host:65535", Some ("host", 65535));
      ("host:0", None);
      ("host:65536", None);
      ("host:", None);
      (":7800", None);
      ("7800", None);
      ("host:seven", None);
    ]

(* --- end to end: two forked agents, real SIGKILL, strict lint --- *)

let lint_clean path =
  match Check.Lint.run ~only:[] ~ignore:[] path with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      Alcotest.(check int) "lint errors" 0 (Check.Lint.errors report);
      Alcotest.(check int) "lint warnings" 0 (Check.Lint.warnings report);
      Alcotest.(check int) "parse errors" 0 report.Check.Lint.parse_errors

let test_cluster_run_with_crash () =
  let out = Filename.concat (temp_dir ()) "cl" in
  let base = port_base () in
  let plan =
    {
      Plan.default with
      n = 4;
      seed = 42L;
      duration = 1.6;
      settle = 1.4;
      rate = 6.0;
      hops = 3;
      kills = [ (0.7, 1) ];
    }
  in
  let cfg =
    { Coordinator.default_cfg with plan; out; worker_base = base + 8 }
  in
  match Coordinator.run_forked ~port_base:base ~agents:2 cfg with
  | Error msg -> Alcotest.failf "cluster run failed: %s" msg
  | Ok r ->
      Alcotest.(check int) "one crash injected" 1 r.crashes;
      Alcotest.(check int) "every final incarnation exits clean" 4
        r.clean_exits;
      Alcotest.(check bool) "events recorded" true (r.events > 50);
      let restarted = ref false and tcp_snapshot = ref false in
      Trace.iter_file r.merged ~f:(fun ~line:_ -> function
        | Ok { Trace.pid = 1; kind = Trace.Restart { new_ver }; _ }
          when new_ver >= 1 ->
            restarted := true
        | Ok { Trace.kind = Trace.Snapshot { values; _ }; _ }
          when List.mem_assoc "link.frames_sent" values ->
            tcp_snapshot := true
        | _ -> ());
      Alcotest.(check bool) "killed worker restarted over TCP" true !restarted;
      Alcotest.(check bool) "link metrics snapshotted" true !tcp_snapshot;
      Alcotest.(check bool) "chrome timeline written" true
        (Sys.file_exists r.chrome);
      lint_clean r.merged;
      (* One run.json format: a cluster run directory has every key of a
         single-host one, partitions included, after its own. *)
      let keys = Test_live.run_json_keys out in
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "cluster run.json has %S" k)
            true (List.mem k keys))
        Test_live.single_host_run_keys;
      Alcotest.(check (list string)) "cluster keys first, then the shared ones"
        ([ "transport"; "run"; "agents"; "peers" ]
        @ Test_live.single_host_run_keys)
        keys

let suite =
  [
    Alcotest.test_case "tcp link: reconnects after peer restart" `Quick
      test_tcp_reconnects_after_peer_restart;
    Alcotest.test_case "tcp link: large frame reassembly" `Quick
      test_tcp_large_frame;
    Alcotest.test_case "tcp link: snapshot carries link metrics" `Quick
      test_tcp_snapshot_has_link_metrics;
    Alcotest.test_case "coordinator: pid blocks are contiguous" `Quick
      test_blocks_partition_pids;
    Alcotest.test_case "validate: host:port endpoints" `Quick
      test_host_port_parses;
    Alcotest.test_case "two-agent cluster run with SIGKILL recovery" `Slow
      test_cluster_run_with_crash;
  ]
  @ Lanes.suite Lanes.tcp
