(** The Unix-domain datagram pipe under {!Link}: the single-host mesh.

    Worker [i] binds [DIR/wi.sock]; a frame is one datagram sent
    straight to the peer's address, so there is no connection state to
    tear down when a peer is SIGKILL-ed. A send the kernel refuses
    (ECONNREFUSED, ENOENT, EAGAIN/EWOULDBLOCK, ENOBUFS: the peer is dead,
    unborn or not draining) is a send error; the link decides what that
    means per lane. The link refuses frames over {!max_frame} at send
    time; a longer datagram from elsewhere arrives truncated and is
    counted as [bad_frames]. *)

val max_frame : int
(** The largest frame one datagram carries whole: 65536 bytes, the most
    [Unix.sendto] writes in one call. *)

val sock_path : string -> int -> string
(** [sock_path dir i] is worker [i]'s socket path. *)

val sun_path_max : int
(** Portable floor of [sizeof sun_path] (104 bytes). *)

val check_dir : dir:string -> n:int -> (unit, string) result
(** One-line error if any of the [n] socket paths under [dir] would
    overflow [sun_path]. Making a link enforces this with
    [Invalid_argument]; callers with a CLI surface should check first and
    report cleanly. *)

val factory :
  ?faults:Link.faults -> dir:string -> n:int -> seed:int64 -> unit ->
  Link.factory
(** A {!Link.factory} for the UDS mesh under [dir]. Each [make] binds its
    socket (unlinking any stale file left by a predecessor); its [ready]
    waits, sleeping in small steps, until every peer's socket file
    exists — the gen-0 startup barrier. *)
