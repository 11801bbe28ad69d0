(** The TCP stream pipe under {!Optimist_live.Link}: the multi-host mesh.

    Worker [i] listens on [endpoints.(i)] and keeps one outbound stream
    connection per peer. Connections are directed: a worker's frames to
    a peer ride its own outbound connection, and the peer's acks and
    heartbeat pongs come back on the peer's outbound connection. Every
    link frame carries its source pid, so inbound streams need no
    handshake. A record on the stream is a 4-byte big-endian length, a
    one-byte tag, then either a link frame or a heartbeat.

    Endpoints are resolved once, when the pipe is built; an unresolvable
    host fails [make]. Connections are set up non-blockingly and rebuilt
    after loss with capped exponential backoff. Every 0.25 s each live
    connection carries a ping; a peer that has not ponged for 3 s has
    its connection torn down and rebuilt, and the pongs feed an RTT
    histogram. Heartbeats pass the link's partition gate, so a
    partitioned peer looks dead. While a peer is down, the pipe refuses
    frames to it. The link then treats the refusal exactly as it treats
    an ECONNREFUSED datagram on the UDS mesh, so protocol code and soak
    scenarios run unchanged over either pipe. *)

module Link = Optimist_live.Link

val max_frame : int
(** The largest link frame one stream record carries (16 MiB less the
    tag byte); the link refuses longer frames at send time, and a
    receiver drops the connection on a longer length prefix. *)

val factory :
  ?faults:Link.faults ->
  endpoints:(string * int) array ->
  n:int ->
  seed:int64 ->
  unit ->
  Link.factory
(** A {!Optimist_live.Link.factory} for the TCP mesh. Besides the link's
    counters, [stats] carries [bytes_sent], [bytes_received],
    [frames_sent], [frames_received], [connects], [reconnects],
    [accepted] and [hb_timeouts]; [snapshot] adds
    [link.hb_rtt_ms.count/p50/p95] once a pong has been seen. [ready]
    pumps the loop until every outbound connection is up. *)
