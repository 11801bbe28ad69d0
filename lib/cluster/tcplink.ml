module Loop = Optimist_live.Loop
module Link = Optimist_live.Link
module Histogram = Optimist_util.Stats.Histogram

(* TCP mesh: worker [i] listens on [endpoints.(i)] and keeps one
   *outbound* stream connection to every peer. Connections are directed:
   my frames to [dst] ride my outbound connection, and everything [dst]
   sends me — acks and heartbeat pongs included — rides its own outbound
   connection back (every frame carries its source pid, so inbound
   streams need no handshake). A SIGKILL-ed peer costs its
   correspondents a dead connection, rebuilt by capped
   exponential-backoff reconnect once the successor incarnation listens
   again; in the interim the pipe refuses frames to it, which the link
   above treats exactly like the UDS mesh's ECONNREFUSED.

   A stream record is a 4-byte big-endian length, then that many bytes:
   a one-byte tag ('\000' link frame, '\001' ping, '\002' pong) and the
   body. A heartbeat body is the sender's pid (int32) and its send
   instant (float64 bits). Pings flow on every live connection; a peer
   that stops ponging for [hb_timeout] is declared down and its
   connection is torn and rebuilt (failure detection under silent
   network death, where TCP itself may take minutes to notice). *)

(* A record larger than this is a corrupt stream, not a message. *)
let max_record = 1 lsl 24

(* The largest link frame a record carries: the tag byte takes one. *)
let max_frame = max_record - 1

(* Bound on unflushed bytes per connection before sends are refused —
   backpressure against a peer that stops reading. *)
let outbuf_cap = 1 lsl 22

let backoff_min = 0.05
let backoff_max = 1.0
let hb_every = 0.25
let hb_timeout = 3.0

(* Free space below which a reader compacts (or grows) its buffer. *)
let read_min = 65536

type conn = {
  c_dst : int;
  c_addr : Unix.sockaddr;  (** resolved once, when the pipe is built *)
  mutable c_fd : Unix.file_descr option;
  mutable c_up : bool;  (** connect completed, stream writable *)
  mutable c_ever_up : bool;  (** distinguishes connects from reconnects *)
  mutable c_armed : bool;  (** writable callback registered *)
  c_q : Bytes.t Queue.t;  (** unflushed records *)
  mutable c_q_off : int;  (** write offset into the queue head *)
  mutable c_q_bytes : int;
  mutable c_backoff : float;
  mutable c_next_attempt : float;  (** wall clock; 0 = due now *)
  mutable c_last_seen : float;  (** wall clock of the last pong *)
}

(* A stream's reassembly buffer: bytes [lo, hi) are read, not parsed. *)
type rbuf = { mutable b : Bytes.t; mutable lo : int; mutable hi : int }

type t = {
  loop : Loop.t;
  me : int;
  io : Link.io;
  conns : conn array;  (** index = dst; [me]'s slot is never used *)
  mutable listen_fd : Unix.file_descr option;
  mutable inbound : Unix.file_descr list;  (** accepted connections *)
  mutable closed : bool;
  hb_rtt : Histogram.t;  (** milliseconds *)
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable frames_sent : int;
  mutable frames_received : int;
  mutable connects : int;
  mutable reconnects : int;
  mutable accepted : int;
  mutable hb_timeouts : int;
}

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found ->
      failwith (Printf.sprintf "tcp link: cannot resolve host %S" host))

let record tag body_len =
  let r = Bytes.create (5 + body_len) in
  Bytes.set_int32_be r 0 (Int32.of_int (1 + body_len));
  Bytes.set r 4 tag;
  r

let frame_record bytes =
  let r = record '\000' (Bytes.length bytes) in
  Bytes.blit bytes 0 r 5 (Bytes.length bytes);
  r

let heartbeat_record tag ~src ~at =
  let r = record tag 12 in
  Bytes.set_int32_be r 5 (Int32.of_int src);
  Bytes.set_int64_be r 9 (Int64.bits_of_float at);
  r

let close_fd t fd =
  Loop.remove_fd t.loop fd;
  try Unix.close fd with Unix.Unix_error _ -> ()

let conn_down t conn =
  Option.iter (close_fd t) conn.c_fd;
  conn.c_armed <- false;
  conn.c_fd <- None;
  conn.c_up <- false;
  Queue.clear conn.c_q;
  conn.c_q_off <- 0;
  conn.c_q_bytes <- 0;
  conn.c_next_attempt <- Unix.gettimeofday () +. conn.c_backoff;
  conn.c_backoff <- Float.min (conn.c_backoff *. 2.0) backoff_max

let rec flush t conn =
  match conn.c_fd with
  | None -> ()
  | Some fd ->
      if Queue.is_empty conn.c_q then begin
        if conn.c_armed then begin
          Loop.remove_writable t.loop fd;
          conn.c_armed <- false
        end
      end
      else begin
        let head = Queue.peek conn.c_q in
        let len = Bytes.length head - conn.c_q_off in
        match Unix.write fd head conn.c_q_off len with
        | n ->
            conn.c_q_bytes <- conn.c_q_bytes - n;
            if n = len then begin
              ignore (Queue.pop conn.c_q);
              conn.c_q_off <- 0;
              flush t conn
            end
            else begin
              conn.c_q_off <- conn.c_q_off + n;
              arm t conn fd
            end
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            arm t conn fd
        | exception Unix.Unix_error _ -> conn_down t conn
      end

and arm t conn fd =
  if not conn.c_armed then begin
    conn.c_armed <- true;
    Loop.on_writable t.loop fd (fun () -> flush t conn)
  end

(* Queue one record on [dst]'s outbound connection; [false] when the
   connection is down or clogged. *)
let enqueue t ~dst r =
  let conn = t.conns.(dst) in
  if (not conn.c_up) || conn.c_q_bytes > outbuf_cap then false
  else begin
    t.frames_sent <- t.frames_sent + 1;
    t.bytes_sent <- t.bytes_sent + Bytes.length r;
    Queue.push r conn.c_q;
    conn.c_q_bytes <- conn.c_q_bytes + Bytes.length r;
    flush t conn;
    true
  end

(* Heartbeats are the pipe's own frames but still cross the link's
   partition gate, so a partitioned peer genuinely looks dead. *)
let send_heartbeat t ~dst tag ~at =
  if t.io.Link.pass dst then
    ignore (enqueue t ~dst (heartbeat_record tag ~src:t.me ~at))

let on_record t b off len =
  t.frames_received <- t.frames_received + 1;
  match Bytes.get b off with
  | '\000' -> t.io.deliver b (off + 1) (len - 1)
  | ('\001' | '\002') as tag when len = 13 ->
      let src = Int32.to_int (Bytes.get_int32_be b (off + 1)) in
      let at = Int64.float_of_bits (Bytes.get_int64_be b (off + 5)) in
      if src < 0 || src >= Array.length t.conns then t.io.bad_frame ()
      else if tag = '\001' then send_heartbeat t ~dst:src '\002' ~at
      else begin
        let now = Unix.gettimeofday () in
        t.conns.(src).c_last_seen <- now;
        Histogram.add t.hb_rtt (Float.max 0.0 ((now -. at) *. 1000.0))
      end
  | _ -> t.io.bad_frame ()

(* Register a record reader on [fd]. Inbound accepted connections and
   outbound connections both read through this (a peer only ever sends
   us records on its own outbound connection, but an EOF on ours is how
   we learn it died). The buffer is read into in place and compacted
   only when its free space runs low, so a record arriving in k chunks
   costs O(size) copying, not O(k·size). [on_close] runs on EOF, a read
   error, or a corrupt stream. *)
let add_reader t fd ~on_close =
  let rb = { b = Bytes.create read_min; lo = 0; hi = 0 } in
  let rec parse () =
    let avail = rb.hi - rb.lo in
    if avail >= 4 then begin
      let len = Int32.to_int (Bytes.get_int32_be rb.b rb.lo) in
      if len <= 0 || len > max_record then begin
        t.io.bad_frame ();
        on_close ()
      end
      else if avail - 4 >= len then begin
        let off = rb.lo + 4 in
        rb.lo <- off + len;
        on_record t rb.b off len;
        parse ()
      end
    end
  in
  Loop.on_readable t.loop fd (fun () ->
      if Bytes.length rb.b - rb.hi < read_min then begin
        let live = rb.hi - rb.lo in
        let b =
          if live + read_min > Bytes.length rb.b then
            Bytes.create (2 * (live + read_min))
          else rb.b
        in
        Bytes.blit rb.b rb.lo b 0 live;
        rb.b <- b;
        rb.lo <- 0;
        rb.hi <- live
      end;
      match Unix.read fd rb.b rb.hi (Bytes.length rb.b - rb.hi) with
      | 0 -> on_close ()
      | n ->
          t.bytes_received <- t.bytes_received + n;
          rb.hi <- rb.hi + n;
          parse ();
          if rb.lo = rb.hi then begin
            rb.lo <- 0;
            rb.hi <- 0
          end
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> on_close ())

let on_connected t conn fd =
  conn.c_up <- true;
  conn.c_backoff <- backoff_min;
  conn.c_last_seen <- Unix.gettimeofday ();
  if conn.c_ever_up then t.reconnects <- t.reconnects + 1
  else t.connects <- t.connects + 1;
  conn.c_ever_up <- true;
  add_reader t fd ~on_close:(fun () -> conn_down t conn)

(* Non-blocking connect: EINPROGRESS parks the socket in the writable
   set; completion is judged by SO_ERROR. *)
let attempt_connect t conn =
  if (not t.closed) && conn.c_fd = None then begin
    match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ ->
        conn.c_next_attempt <- Unix.gettimeofday () +. conn.c_backoff
    | fd -> (
        Unix.set_nonblock fd;
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        conn.c_fd <- Some fd;
        conn.c_up <- false;
        match Unix.connect fd conn.c_addr with
        | () -> on_connected t conn fd
        | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _)
          ->
            Loop.on_writable t.loop fd (fun () ->
                Loop.remove_writable t.loop fd;
                if conn.c_fd = Some fd && not conn.c_up then
                  match Unix.getsockopt_error fd with
                  | None -> on_connected t conn fd
                  | Some _ -> conn_down t conn)
        | exception Unix.Unix_error _ -> conn_down t conn)
  end

(* Retry every due disconnected peer. Driven from the heartbeat tick and
   from [ready]'s pump (loop timers idle until the run base passes, so
   the pre-base connection barrier cannot rely on them). *)
let reconnect_due t =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun conn ->
      if
        conn.c_dst <> t.me && conn.c_fd = None
        && conn.c_next_attempt <= now
      then attempt_connect t conn)
    t.conns

let heartbeat t =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun conn ->
      if conn.c_dst <> t.me && conn.c_up then begin
        if now -. conn.c_last_seen > hb_timeout then begin
          (* Silence despite a live TCP stream: declare the peer down
             and rebuild through the backoff path. *)
          t.hb_timeouts <- t.hb_timeouts + 1;
          conn_down t conn
        end
        else send_heartbeat t ~dst:conn.c_dst '\001' ~at:now
      end)
    t.conns

let listen t ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_any, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  t.listen_fd <- Some fd;
  Loop.on_readable t.loop fd (fun () ->
      let continue = ref true in
      while !continue do
        match Unix.accept fd with
        | cfd, _ ->
            Unix.set_nonblock cfd;
            Unix.setsockopt cfd Unix.TCP_NODELAY true;
            t.accepted <- t.accepted + 1;
            t.inbound <- cfd :: t.inbound;
            add_reader t cfd ~on_close:(fun () ->
                t.inbound <- List.filter (fun f -> f <> cfd) t.inbound;
                close_fd t cfd)
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            continue := false
        | exception Unix.Unix_error _ -> continue := false
      done)

let connected t =
  Array.for_all (fun conn -> conn.c_dst = t.me || conn.c_up) t.conns

(* Startup barrier: pump the loop (connect completions, accepts) until
   every outbound connection is up. Wall-clock driven — the loop's own
   clock may still be idling before the run base. *)
let wait_connected t ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    if connected t then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      reconnect_due t;
      Loop.run_once t.loop ~max_wait:0.02;
      wait ()
    end
  in
  wait ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter
      (fun conn ->
        Option.iter (close_fd t) conn.c_fd;
        conn.c_fd <- None;
        conn.c_up <- false)
      t.conns;
    (* Accepted inbound connections too: a process death would close
       them for free, but an in-process teardown (tests, same-process
       incarnation swaps) must not leave readers that keep consuming a
       peer's frames — the peer would never see EOF and never reconnect
       to the successor. *)
    List.iter (close_fd t) t.inbound;
    t.inbound <- [];
    Option.iter (close_fd t) t.listen_fd;
    t.listen_fd <- None
  end

let pipe ~endpoints ~n ~loop ~me io =
  if Array.length endpoints <> n then
    invalid_arg
      (Printf.sprintf "tcp link: %d endpoints for %d workers"
         (Array.length endpoints) n);
  let t =
    {
      loop;
      me;
      io;
      conns =
        Array.mapi
          (fun dst (host, port) ->
            {
              c_dst = dst;
              c_addr = Unix.ADDR_INET (resolve host, port);
              c_fd = None;
              c_up = false;
              c_ever_up = false;
              c_armed = false;
              c_q = Queue.create ();
              c_q_off = 0;
              c_q_bytes = 0;
              c_backoff = backoff_min;
              c_next_attempt = 0.0;
              c_last_seen = 0.0;
            })
          endpoints;
      listen_fd = None;
      inbound = [];
      closed = false;
      hb_rtt = Histogram.create ();
      bytes_sent = 0;
      bytes_received = 0;
      frames_sent = 0;
      frames_received = 0;
      connects = 0;
      reconnects = 0;
      accepted = 0;
      hb_timeouts = 0;
    }
  in
  listen t ~port:(snd endpoints.(me));
  reconnect_due t;
  let rec hb_loop () =
    if not t.closed then begin
      heartbeat t;
      reconnect_due t;
      Loop.schedule loop ~delay:hb_every hb_loop
    end
  in
  Loop.schedule loop ~delay:hb_every hb_loop;
  {
    Link.p_max_frame = max_frame;
    p_send = (fun dst bytes -> enqueue t ~dst (frame_record bytes));
    p_ready = wait_connected t;
    p_counters =
      (fun () ->
        [
          ("bytes_sent", t.bytes_sent);
          ("bytes_received", t.bytes_received);
          ("frames_sent", t.frames_sent);
          ("frames_received", t.frames_received);
          ("connects", t.connects);
          ("reconnects", t.reconnects);
          ("accepted", t.accepted);
          ("hb_timeouts", t.hb_timeouts);
        ]);
    p_extras =
      (fun () ->
        let h = t.hb_rtt in
        if Histogram.count h = 0 then []
        else
          [
            ("hb_rtt_ms.count", float_of_int (Histogram.count h));
            ("hb_rtt_ms.p50", Histogram.quantile h 0.5);
            ("hb_rtt_ms.p95", Histogram.quantile h 0.95);
          ]);
    p_close = (fun () -> close t);
  }

let factory ?faults ~endpoints ~n ~seed () =
  Link.factory ?faults ~n ~seed (pipe ~endpoints ~n)
