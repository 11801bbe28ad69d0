(* One table of lane-semantics tests, run over both byte pipes under
   Optimist_live.Link: the UDS datagram mesh (registered in the live
   suite as "livenet: ...") and the TCP stream mesh (registered in the
   cluster suite as "tcp link: ..."). Every case is one test body; a
   pipe only says how to build a fresh two-worker mesh and how to put
   raw bytes on a worker's wire, bypassing the link. *)

module Loop = Optimist_live.Loop
module Link = Optimist_live.Link
module Livenet = Optimist_live.Livenet
module Tcplink = Optimist_cluster.Tcplink
module Transport = Optimist_core.Transport

type mesh = {
  factory : Link.faults -> Link.factory;  (** same mesh, given faults *)
  inject : dst:int -> Bytes.t -> unit;  (** one raw frame to [dst] *)
}

type pipe = {
  prefix : string;
  max_frame : int;  (** the longest frame the pipe delivers whole *)
  mesh : unit -> mesh;
}

let tmp_counter = ref 0

(* Keep paths short: AF_UNIX socket paths are limited to ~107 bytes. *)
let temp_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "optlane-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

(* Distinct port ranges per mesh so parallel alcotest runs and TIME_WAIT
   leftovers cannot collide. Derived from the test process's pid to
   survive repeated invocations on one machine. *)
let port_base =
  let counter = ref 0 in
  fun () ->
    incr counter;
    20000 + ((Unix.getpid () * 13 + !counter * 101) mod 20000)

let endpoints base n = Array.init n (fun i -> ("127.0.0.1", base + i))

let uds =
  {
    prefix = "livenet";
    max_frame = Livenet.max_frame;
    mesh =
      (fun () ->
        let dir = temp_dir () in
        {
          factory =
            (fun faults -> Livenet.factory ~faults ~dir ~n:2 ~seed:11L ());
          inject =
            (fun ~dst bytes ->
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
              ignore
                (Unix.sendto fd bytes 0 (Bytes.length bytes) []
                   (Unix.ADDR_UNIX (Livenet.sock_path dir dst)));
              Unix.close fd);
        });
  }

let tcp =
  {
    prefix = "tcp link";
    max_frame = Tcplink.max_frame;
    mesh =
      (fun () ->
        let eps = endpoints (port_base ()) 2 in
        {
          factory =
            (fun faults ->
              Tcplink.factory ~faults ~endpoints:eps ~n:2 ~seed:31L ());
          inject =
            (fun ~dst bytes ->
              (* A stream record: length, tag 0 (a link frame), the frame. *)
              let len = Bytes.length bytes in
              let r = Bytes.create (5 + len) in
              Bytes.set_int32_be r 0 (Int32.of_int (1 + len));
              Bytes.set r 4 '\000';
              Bytes.blit bytes 0 r 5 len;
              let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              let host, port = eps.(dst) in
              Unix.connect fd
                (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
              ignore (Unix.write fd r 0 (Bytes.length r));
              Unix.close fd);
        });
  }

let make (f : Link.factory) loop me : string Link.t =
  f.Link.make ~loop ~me ~gen:0 ~jitter:(0.001, 0.02)

let new_loop () = Loop.create ~base:(Unix.gettimeofday ()) ()
let stat (l : _ Link.t) key = List.assoc key (l.Link.stats ())

let collect (l : string Link.t) me =
  let got = ref [] in
  l.Link.transport.Transport.set_handler me (fun m -> got := m :: !got);
  got

let send (l : string Link.t) lane ~dst m =
  l.Link.transport.Transport.send ~lane ~src:0 ~dst m

let connects a b =
  Alcotest.(check bool) "mesh connects" true
    (a.Link.ready ~timeout:5.0 && b.Link.ready ~timeout:5.0)

let data_and_control pipe () =
  let loop = new_loop () in
  let f = (pipe.mesh ()).factory Link.no_faults in
  let a = make f loop 0 and b = make f loop 1 in
  connects a b;
  let got = collect b 1 in
  ignore (collect a 0);
  send a Transport.Data ~dst:1 "data";
  send a Transport.Control ~dst:1 "ctl";
  Loop.run loop ~until:0.4;
  Alcotest.(check (list string)) "both lanes delivered" [ "ctl"; "data" ]
    (List.sort compare !got);
  Alcotest.(check int) "control acked" 0 (a.Link.unacked ());
  a.Link.close ();
  b.Link.close ()

let control_reaches_late_peer pipe () =
  (* A control frame sent before the destination even exists must reach
     it once it comes up — the live analogue of tokens queued across
     downtime — and be delivered exactly once despite retransmission. *)
  let loop = new_loop () in
  let f = (pipe.mesh ()).factory Link.no_faults in
  let a = make f loop 0 in
  ignore (collect a 0);
  send a Transport.Control ~dst:1 "tok";
  Loop.run loop ~until:0.15;
  Alcotest.(check int) "still unacked" 1 (a.Link.unacked ());
  let b = make f loop 1 in
  let got = collect b 1 in
  Alcotest.(check bool) "late peer reachable" true (a.Link.ready ~timeout:5.0);
  Loop.run loop ~until:1.0;
  Alcotest.(check (list string)) "delivered exactly once" [ "tok" ] !got;
  Alcotest.(check int) "acked after retry" 0 (a.Link.unacked ());
  a.Link.close ();
  b.Link.close ()

let data_to_dead_peer_drops pipe () =
  let loop = new_loop () in
  let a = make ((pipe.mesh ()).factory Link.no_faults) loop 0 in
  ignore (collect a 0);
  send a Transport.Data ~dst:1 "vanishes";
  Loop.run loop ~until:0.1;
  Alcotest.(check int) "counted as a wire drop" 1 (stat a "send_errors");
  a.Link.close ()

let one_way_partition_heals pipe () =
  (* A sustained one-way partition (only the sender's gate is configured,
     so the reverse path stays open): control frames pile up unacked
     while the window is shut, then heal through retransmission — and the
     receiver's dedup must keep delivery exactly-once despite every
     retransmit that piled up arriving at once. *)
  let loop = new_loop () in
  let m = pipe.mesh () in
  let faults =
    {
      Link.no_faults with
      Link.partitions =
        [ { Link.pt_start = 0.0; pt_stop = 0.25; pt_island = [ 0 ] } ];
    }
  in
  let a = make (m.factory faults) loop 0 in
  let b = make (m.factory Link.no_faults) loop 1 in
  let got = collect b 1 in
  ignore (collect a 0);
  send a Transport.Control ~dst:1 "t1";
  send a Transport.Control ~dst:1 "t2";
  Loop.run loop ~until:0.15;
  Alcotest.(check int) "unacked grows while partitioned" 2 (a.Link.unacked ());
  Alcotest.(check (list string)) "nothing crossed the partition" [] !got;
  Alcotest.(check bool) "sends were gated, not lost silently" true
    (stat a "partition_blocked" > 0);
  Loop.run loop ~until:0.6;
  Alcotest.(check (list string)) "delivered exactly once after heal"
    [ "t1"; "t2" ] (List.sort compare !got);
  Alcotest.(check int) "drained to zero after heal" 0 (a.Link.unacked ());
  a.Link.close ();
  b.Link.close ()

(* The link's frame, mirrored constructor for constructor, to forge what
   a foreign or corrupt sender could put on the wire. *)
type 'a forged =
  | Data_msg of { src : int; payload : 'a }
  | Ctl_msg of { src : int; seq : int; payload : 'a }
  | Ctl_ack of { seq : int }

let forge (f : string forged) = Marshal.to_bytes f []

let bad_sender_is_counted pipe () =
  (* A sender pid outside the mesh must not crash the receiver (the ack
     path used to index the peer table with it) nor vanish without a
     trace: the frame is dropped and counted. *)
  let loop = new_loop () in
  let m = pipe.mesh () in
  let b = make (m.factory Link.no_faults) loop 1 in
  let got = collect b 1 in
  m.inject ~dst:1 (forge (Ctl_msg { src = 99; seq = 1; payload = "x" }));
  m.inject ~dst:1 (forge (Data_msg { src = -1; payload = "y" }));
  m.inject ~dst:1 (forge (Ctl_ack { seq = 7 }));
  Loop.run loop ~until:0.3;
  Alcotest.(check (list string)) "nothing delivered" [] !got;
  Alcotest.(check int) "bad frames counted" 2 (stat b "bad_frames");
  Alcotest.(check int) "the well-formed ack still received" 1
    (stat b "received");
  b.Link.close ()

let undecodable_frame_is_counted pipe () =
  (* Bytes that do not decode to exactly one frame — garbage, or a frame
     cut short — are dropped and counted, never swallowed silently. *)
  let loop = new_loop () in
  let m = pipe.mesh () in
  let b = make (m.factory Link.no_faults) loop 1 in
  let got = collect b 1 in
  let whole = forge (Ctl_msg { src = 0; seq = 1; payload = "x" }) in
  m.inject ~dst:1 (Bytes.sub whole 0 (Bytes.length whole / 2));
  m.inject ~dst:1 (Bytes.of_string "not a marshalled frame at all");
  Loop.run loop ~until:0.3;
  Alcotest.(check (list string)) "nothing delivered" [] !got;
  Alcotest.(check int) "bad frames counted" 2 (stat b "bad_frames");
  Alcotest.(check int) "nothing received" 0 (stat b "received");
  b.Link.close ()

let oversized_frame_is_refused pipe () =
  (* A frame one byte past what the pipe delivers whole would arrive cut
     short (or not at all) on every retransmit. The link refuses it at
     send time, once per send, on either lane: a Control frame never
     enters the retransmit table. *)
  let loop = new_loop () in
  let f = (pipe.mesh ()).factory Link.no_faults in
  let a = make f loop 0 and b = make f loop 1 in
  connects a b;
  let got = collect b 1 in
  ignore (collect a 0);
  let big = String.make (pipe.max_frame + 1) 'x' in
  send a Transport.Control ~dst:1 big;
  Alcotest.(check int) "control frame not kept for retransmit" 0
    (a.Link.unacked ());
  Alcotest.(check int) "refusal counted once" 1 (stat a "send_errors");
  send a Transport.Data ~dst:1 big;
  Loop.run loop ~until:0.3;
  Alcotest.(check int) "still nothing unacked" 0 (a.Link.unacked ());
  Alcotest.(check int) "data refusal counted" 2 (stat a "send_errors");
  Alcotest.(check int) "nothing retransmitted" 0 (stat a "retransmits");
  Alcotest.(check (list string)) "nothing delivered" [] !got;
  a.Link.close ();
  b.Link.close ()

let suite pipe =
  List.map
    (fun (name, body) ->
      Alcotest.test_case (pipe.prefix ^ ": " ^ name) `Quick (body pipe))
    [
      ("data and control delivery", data_and_control);
      ("control reaches a late peer", control_reaches_late_peer);
      ("data to dead peer drops", data_to_dead_peer_drops);
      ("one-way partition heals exactly-once", one_way_partition_heals);
      ("sender outside the mesh is counted", bad_sender_is_counted);
      ("undecodable frame is counted", undecodable_frame_is_counted);
      ("oversized frame is refused at send", oversized_frame_is_refused);
    ]
