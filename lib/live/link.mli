(** The live network: one reliability and fault layer over a byte pipe.

    A link is everything one worker needs from its message fabric: a
    protocol-facing {!Optimist_core.Transport.t}, a gen-0 startup
    barrier, and wire-level accounting. This module is the whole of the
    lane semantics; a {!pipe} underneath only moves whole frames to a
    peer. {!Livenet} (single-host Unix-domain datagrams) and the
    cluster's [Tcplink] (framed TCP streams) are the two pipes.

    The two lanes of {!Optimist_core.Transport.lane} map to:

    - {b Data} — fire-and-forget. The pipe write is delayed by a seeded
      random jitter, so back-to-back sends genuinely reorder on the wire;
      a frame the pipe cannot deliver (dead or unborn peer) is a real
      in-flight loss, counted as [send_errors].
    - {b Control} — reliable. Frames carry a sequence number, are kept
      until acknowledged and are retransmitted every 0.1 s; receivers ack
      every copy and deliver only the first. A control frame sent to a
      crashed peer is therefore delivered to its next incarnation — the
      live equivalent of the simulated network's queued control plane.

    Every frame, in both directions and of both lanes, passes the
    partition gate before it reaches the pipe; the pipe's own frames
    (TCP heartbeats) pass it too, through {!io.pass}. A received frame
    that does not decode, or whose sender is outside [[0, n)], is
    dropped and counted as [bad_frames]. The transport's
    [set_down]/[set_up] are no-ops: crashes are real process deaths
    here. *)

module Transport = Optimist_core.Transport

type partition = { pt_start : float; pt_stop : float; pt_island : int list }
(** A burst partition: during [pt_start, pt_stop) (loop time), frames
    crossing the island boundary — in either direction — are blocked at
    the gate. Control frames heal through retransmission once the window
    closes; Data frames are real losses. *)

type faults = {
  drop_rate : float;  (** Bernoulli loss per Data send *)
  dup_rate : float;  (** Bernoulli duplicate per Data send *)
  partitions : partition list;
}
(** Seeded network-fault plan, decided deterministically from the link's
    PRNG at send time (draw order per Data send: drop, jitter, dup,
    jitter). *)

val no_faults : faults

type 'a t = {
  transport : 'a Transport.t;  (** the two-lane protocol fabric *)
  ready : timeout:float -> bool;
      (** block until every peer is reachable; [false] on timeout. The
          gen-0 startup barrier. *)
  unacked : unit -> int;  (** control frames not yet acknowledged *)
  stats : unit -> (string * int) list;
      (** wire counters for the worker stats file: [sent_data],
          [sent_control], [retransmits], [received], [send_errors],
          [faults_dropped], [faults_duplicated], [partition_blocked],
          [bad_frames], then the pipe's own counters *)
  snapshot : unit -> (string * float) list;
      (** the same counters as ["link."]-prefixed floats, plus the pipe's
          float extras (heartbeat RTT quantiles over TCP), for the
          schema-v3 [Snapshot] telemetry records *)
  close : unit -> unit;  (** stop the timers and close the pipe *)
}

type factory = {
  make :
    'a.
    loop:Loop.t -> me:int -> gen:int -> jitter:float * float -> 'a t;
      (** build this incarnation's link. [jitter] is the (min, max) Data
          send delay in seconds, passed at make time because the worker
          overrides it per protocol (Strom-Yemini runs jitter-free). *)
}

(** {2 Pipes} *)

type io = {
  deliver : Bytes.t -> int -> int -> unit;
      (** [deliver buf off len] hands the link one received frame: exactly
          the [len] bytes at [off]. The buffer may be reused once it
          returns. *)
  pass : int -> bool;
      (** the partition gate for a pipe-level frame to the given peer:
          [false], counted as [partition_blocked], while an active
          partition separates the two *)
  bad_frame : unit -> unit;
      (** count a record the pipe itself could not parse *)
}
(** What the link gives the pipe it sits on. *)

type pipe = {
  p_max_frame : int;
      (** the longest frame, in bytes, the pipe delivers whole; the link
          refuses a longer one at send time, on either lane, as one
          [send_errors] (a Control frame never enters the retransmit
          table) *)
  p_send : int -> Bytes.t -> bool;
      (** write one encoded frame to a peer; [false] when the pipe cannot
          take it (peer down, buffer full), counted as [send_errors] *)
  p_ready : timeout:float -> bool;
  p_counters : unit -> (string * int) list;
  p_extras : unit -> (string * float) list;
      (** un-prefixed float metrics joined to {!t.snapshot} *)
  p_close : unit -> unit;
}
(** A byte pipe: what is specific to one transport. *)

val factory :
  ?faults:faults ->
  n:int ->
  seed:int64 ->
  (loop:Loop.t -> me:int -> io -> pipe) ->
  factory
(** A factory over the given pipe constructor. [seed] is the run seed;
    each [make ~me ~gen] seeds its PRNG with [seed + 1 + me + gen*n] and
    starts its control sequence numbers at [gen * 1_000_000], so a
    restarted worker's control frames are not mistaken for
    retransmits of its predecessor's, and a scenario draws the same
    faults over either pipe. *)
