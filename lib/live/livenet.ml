module Transport = Optimist_core.Transport
module Prng = Optimist_util.Prng

(* One Unix-domain *datagram* socket per worker. Datagrams keep message
   boundaries (no stream framing) and need no connection management, so a
   SIGKILL-ed peer costs its correspondents nothing but an ECONNREFUSED on
   the next send — which is exactly the fire-and-forget Data-lane model.
   The Control lane layers acknowledgements and periodic retransmission on
   top: a control frame is retried until the destination (or its next
   incarnation) acks it, giving the "reliable, queued across downtime"
   semantics of the simulated network's control plane. *)

type 'a frame =
  | Data_msg of { src : int; payload : 'a }
  | Ctl_msg of { src : int; seq : int; payload : 'a }
  | Ctl_ack of { seq : int }

type partition = { pt_start : float; pt_stop : float; pt_island : int list }

type faults = {
  drop_rate : float;
  dup_rate : float;
  partitions : partition list;
}

let no_faults = { drop_rate = 0.0; dup_rate = 0.0; partitions = [] }

type 'a t = {
  loop : Loop.t;
  dir : string;
  me : int;
  n : int;
  fd : Unix.file_descr;
  peers : Unix.sockaddr array; (* by pid, built once *)
  rng : Prng.t;
  jitter_lo : float;
  jitter_span : float;
  retransmit_every : float;
  faults : faults;
  mutable handler : 'a -> unit;
  mutable ctl_seq : int;
  unacked : (int, int * Bytes.t) Hashtbl.t; (* seq -> (dst, encoded frame) *)
  seen_ctl : (int * int, unit) Hashtbl.t; (* (src, seq) already delivered *)
  mutable sent_data : int;
  mutable sent_ctl : int;
  mutable retransmits : int;
  mutable received : int;
  mutable send_errors : int;
  mutable faults_dropped : int;
  mutable faults_duplicated : int;
  mutable partition_blocked : int;
  mutable closed : bool;
  buf : Bytes.t;
}

let sock_path dir i = Filename.concat dir (Printf.sprintf "w%d.sock" i)

(* The portable floor of [sizeof sun_path] (104 on the BSDs, 108 on
   Linux), checked against the longest peer path so a long --dir fails
   with one line instead of an opaque [Unix.bind] exception. *)
let sun_path_max = 104

let check_dir ~dir ~n =
  let path = sock_path dir (max 0 (n - 1)) in
  let len = String.length path in
  if len >= sun_path_max then
    Error
      (Printf.sprintf
         "socket path %s is %d bytes, over the AF_UNIX sun_path limit (%d) \
          — use a shorter --dir"
         path len sun_path_max)
  else Ok ()

(* An active partition blocks frames crossing the island boundary in
   either direction. The gate sits below both lanes: Data frames (and
   acks) vanish like real in-flight losses, while Control frames come
   back through the retransmit timer once the window closes — a burst
   partition heals without protocol-visible state. *)
let partitioned t ~dst =
  t.faults.partitions <> []
  && begin
       let now = Loop.now t.loop in
       List.exists
         (fun p ->
           now >= p.pt_start && now < p.pt_stop
           && List.mem t.me p.pt_island <> List.mem dst p.pt_island)
         t.faults.partitions
     end

(* Sends to a dead or not-yet-started peer fail; for Data that is the
   message's fate (a real in-flight drop), for Control the retransmit
   timer retries. *)
let raw_send t ~dst bytes =
  if partitioned t ~dst then t.partition_blocked <- t.partition_blocked + 1
  else
    try
    ignore (Unix.sendto t.fd bytes 0 (Bytes.length bytes) [] t.peers.(dst))
  with
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN | Unix.EWOULDBLOCK
        | Unix.ENOBUFS ),
        _,
        _ ) ->
      t.send_errors <- t.send_errors + 1

let send_frame t ~dst frame =
  raw_send t ~dst (Marshal.to_bytes frame [])

let send t ~lane ~dst payload =
  if not t.closed then
    match lane with
    | Transport.Data ->
        t.sent_data <- t.sent_data + 1;
        if t.faults.drop_rate > 0.0 && Prng.bernoulli t.rng t.faults.drop_rate
        then t.faults_dropped <- t.faults_dropped + 1
        else begin
          let bytes = Marshal.to_bytes (Data_msg { src = t.me; payload }) [] in
          (* Sender-side jitter delays the actual write by a random amount,
             so two back-to-back sends can hit the wire (and the receiver)
             out of order — the "reordered sockets" condition. *)
          let post () =
            let delay = t.jitter_lo +. Prng.float t.rng t.jitter_span in
            Loop.schedule t.loop ~delay (fun () ->
                if not t.closed then raw_send t ~dst bytes)
          in
          post ();
          if t.faults.dup_rate > 0.0 && Prng.bernoulli t.rng t.faults.dup_rate
          then begin
            t.faults_duplicated <- t.faults_duplicated + 1;
            post ()
          end
        end
    | Transport.Control ->
        t.sent_ctl <- t.sent_ctl + 1;
        t.ctl_seq <- t.ctl_seq + 1;
        let seq = t.ctl_seq in
        let bytes =
          Marshal.to_bytes (Ctl_msg { src = t.me; seq; payload }) []
        in
        Hashtbl.replace t.unacked seq (dst, bytes);
        raw_send t ~dst bytes

let dispatch t frame =
  t.received <- t.received + 1;
  match frame with
  | Data_msg { src = _; payload } -> t.handler payload
  | Ctl_msg { src; seq; payload } ->
      (* Ack first (acks are cheap and idempotent); deliver only the first
         copy — retransmits of frames we already processed are dropped
         here rather than burdening the protocol. *)
      send_frame t ~dst:src (Ctl_ack { seq });
      if not (Hashtbl.mem t.seen_ctl (src, seq)) then begin
        Hashtbl.replace t.seen_ctl (src, seq) ();
        t.handler payload
      end
  | Ctl_ack { seq } -> Hashtbl.remove t.unacked seq

(* Drain every datagram currently queued; the socket is non-blocking.
   Frames carry their sender, so the source address is not read. *)
let rec pump t =
  match Unix.recv t.fd t.buf 0 (Bytes.length t.buf) [] with
  | len ->
      if len > 0 then begin
        (match (Marshal.from_bytes (Bytes.sub t.buf 0 len) 0 : 'a frame) with
        | frame -> dispatch t frame
        | exception _ -> ());
        if not t.closed then pump t
      end
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()

let retransmit_pending t =
  if Hashtbl.length t.unacked > 0 then
    Hashtbl.iter
      (fun _ (dst, bytes) ->
        t.retransmits <- t.retransmits + 1;
        raw_send t ~dst bytes)
      t.unacked

let create ?(jitter = (0.001, 0.02)) ?(retransmit_every = 0.1) ?(seq_base = 0)
    ?(faults = no_faults) ~loop ~dir ~me ~n ~seed () =
  (match check_dir ~dir ~n with Ok () -> () | Error e -> invalid_arg e);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
  let path = sock_path dir me in
  (try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  let jitter_lo, jitter_hi = jitter in
  let t =
    {
      loop;
      dir;
      me;
      n;
      fd;
      peers = Array.init n (fun i -> Unix.ADDR_UNIX (sock_path dir i));
      rng = Prng.create seed;
      jitter_lo;
      jitter_span = Float.max (jitter_hi -. jitter_lo) 1e-9;
      retransmit_every;
      faults;
      handler = (fun _ -> ());
      ctl_seq = seq_base;
      unacked = Hashtbl.create 64;
      seen_ctl = Hashtbl.create 256;
      sent_data = 0;
      sent_ctl = 0;
      retransmits = 0;
      received = 0;
      send_errors = 0;
      faults_dropped = 0;
      faults_duplicated = 0;
      partition_blocked = 0;
      closed = false;
      buf = Bytes.create 262144;
    }
  in
  Loop.on_readable loop fd (fun () -> pump t);
  let rec retry_loop () =
    if not t.closed then begin
      retransmit_pending t;
      Loop.schedule loop ~delay:t.retransmit_every retry_loop
    end
  in
  Loop.schedule loop ~delay:retransmit_every retry_loop;
  t

(* Every worker binds its socket at startup; until a peer's path exists,
   sends to it vanish into ENOENT. The barrier makes gen-0 startup clean;
   restarted workers find all paths already present. *)
let wait_for_peers t ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let all_present () =
    let ok = ref true in
    for i = 0 to t.n - 1 do
      if not (Sys.file_exists (sock_path t.dir i)) then ok := false
    done;
    !ok
  in
  let rec wait () =
    if all_present () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ()

let transport t =
  {
    Transport.send = (fun ~lane ~src:_ ~dst payload -> send t ~lane ~dst payload);
    broadcast =
      (fun ~lane ~src:_ payload ->
        for dst = 0 to t.n - 1 do
          if dst <> t.me then send t ~lane ~dst payload
        done);
    set_handler =
      (fun id f -> if id = t.me then t.handler <- f);
    (* Crashes are real process deaths here; the fabric has no gate. *)
    set_down = (fun _ -> ());
    set_up = (fun ~drop_held_data:_ _ -> ());
  }

let unacked_count t = Hashtbl.length t.unacked

let stats t =
  [
    ("sent_data", t.sent_data);
    ("sent_control", t.sent_ctl);
    ("retransmits", t.retransmits);
    ("received", t.received);
    ("send_errors", t.send_errors);
    ("faults_dropped", t.faults_dropped);
    ("faults_duplicated", t.faults_duplicated);
    ("partition_blocked", t.partition_blocked);
  ]

let close t =
  if not t.closed then begin
    t.closed <- true;
    Loop.remove_fd t.loop t.fd;
    (try Unix.close t.fd with Unix.Unix_error _ -> ())
  end

let link t =
  {
    Link.transport = transport t;
    ready = (fun ~timeout -> wait_for_peers t ~timeout);
    unacked = (fun () -> unacked_count t);
    stats = (fun () -> stats t);
    snapshot = (fun () -> Link.snapshot_of_stats (stats t));
    close = (fun () -> close t);
    kind = "uds";
  }

(* Per-incarnation seed and control-sequence base are derived here so a
   factory-built mesh behaves bit-for-bit like the historical direct
   [create] calls in the worker. *)
let factory ?retransmit_every ?(faults = no_faults) ~dir ~n ~seed () =
  {
    Link.f_kind = "uds";
    make =
      (fun ~loop ~me ~gen ~jitter ->
        let seed = Int64.add seed (Int64.of_int (1 + me + (gen * n))) in
        link
          (create ~jitter ?retransmit_every
             ~seq_base:(gen * 1_000_000)
             ~faults ~loop ~dir ~me ~n ~seed ()));
  }
