(* One Unix-domain *datagram* socket per worker. Datagrams keep message
   boundaries (no stream framing) and need no connection management, so a
   SIGKILL-ed peer costs its correspondents nothing but an ECONNREFUSED on
   the next send — which is exactly the fire-and-forget Data-lane model.
   Everything above moving one frame is {!Link}'s. *)

(* The largest frame the pipe delivers whole. [Unix.sendto] copies at
   most 65536 bytes (the Unix library's I/O buffer) into one datagram and
   silently drops the rest, so a longer frame would reach the peer cut
   short on every copy; the link refuses it at send time instead. *)
let max_frame = 65536

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

(* Every worker binds its socket at startup; until a peer's path exists,
   sends to it vanish into ENOENT. The barrier makes gen-0 startup clean;
   restarted workers find all paths already present. *)
let wait_for_peers ~dir ~n ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let all_present () =
    List.for_all (fun i -> Sys.file_exists (sock_path dir i)) (List.init n Fun.id)
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

let pipe ~dir ~n ~loop ~me (io : Link.io) =
  (match check_dir ~dir ~n with Ok () -> () | Error e -> invalid_arg e);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
  let path = sock_path dir me in
  (try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  let peers = Array.init n (fun i -> Unix.ADDR_UNIX (sock_path dir i)) in
  let buf = Bytes.create max_frame in
  let closed = ref false in
  (* Drain every datagram currently queued; the socket is non-blocking.
     Frames carry their sender, so the source address is not read. *)
  let rec pump () =
    match Unix.recv fd buf 0 (Bytes.length buf) [] with
    | len ->
        io.deliver buf 0 len;
        if not !closed then pump ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  Loop.on_readable loop fd pump;
  {
    Link.p_max_frame = max_frame;
    p_send =
      (fun dst bytes ->
        let len = Bytes.length bytes in
        match Unix.sendto fd bytes 0 len [] peers.(dst) with
        | sent -> sent = len
        | exception
            Unix.Unix_error
              ( ( Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN
                | Unix.EWOULDBLOCK | Unix.ENOBUFS ),
                _,
                _ ) ->
            false);
    p_ready = (fun ~timeout -> wait_for_peers ~dir ~n ~timeout);
    p_counters = (fun () -> []);
    p_extras = (fun () -> []);
    (* The path is left for a successor incarnation to rebind. *)
    p_close =
      (fun () ->
        if not !closed then begin
          closed := true;
          Loop.remove_fd loop fd;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end);
  }

let factory ?faults ~dir ~n ~seed () =
  Link.factory ?faults ~n ~seed (pipe ~dir ~n)
