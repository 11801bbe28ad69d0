module Transport = Optimist_core.Transport
module Prng = Optimist_util.Prng

(* The live network's one reliability and fault layer. The framing,
   the seeded Data-lane faults, the partition gate, Control-lane
   seq/ack/retransmit/dedup and the wire counters live here once; a pipe
   underneath (Unix-domain datagrams or framed TCP streams) only moves
   whole frames. A worker never knows which pipe it got. *)

type partition = { pt_start : float; pt_stop : float; pt_island : int list }

type faults = {
  drop_rate : float;
  dup_rate : float;
  partitions : partition list;
}

let no_faults = { drop_rate = 0.0; dup_rate = 0.0; partitions = [] }

type 'a t = {
  transport : 'a Transport.t;
  ready : timeout:float -> bool;
  unacked : unit -> int;
  stats : unit -> (string * int) list;
  snapshot : unit -> (string * float) list;
  close : unit -> unit;
}

(* The factory's [make] is universally quantified over the payload type:
   each protocol adapter of the worker instantiates the same fabric at
   its own wire type. *)
type factory = {
  make :
    'a.
    loop:Loop.t -> me:int -> gen:int -> jitter:float * float -> 'a t;
}

type io = {
  deliver : Bytes.t -> int -> int -> unit;
  pass : int -> bool;
  bad_frame : unit -> unit;
}

type pipe = {
  p_max_frame : int;
  p_send : int -> Bytes.t -> bool;
  p_ready : timeout:float -> bool;
  p_counters : unit -> (string * int) list;
  p_extras : unit -> (string * float) list;
  p_close : unit -> unit;
}

type 'a frame =
  | Data_msg of { src : int; payload : 'a }
  | Ctl_msg of { src : int; seq : int; payload : 'a }
  | Ctl_ack of { seq : int }

let retransmit_every = 0.1

type 'a state = {
  loop : Loop.t;
  me : int;
  n : int;
  rng : Prng.t;
  jitter_lo : float;
  jitter_span : float;
  faults : faults;
  mutable pipe : pipe;
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
  mutable bad_frames : int;
  mutable closed : bool;
}

(* The one encode and decode point of the frame. A frame is accepted
   only if its marshalled size is exactly the bytes the pipe delivered,
   so a truncated datagram or a short stream record is a bad frame, not
   a read past its end. *)
let encode (frame : _ frame) = Marshal.to_bytes frame []

let decode buf off len : _ frame option =
  match Marshal.total_size buf off with
  | size when size = len -> (
      try Some (Marshal.from_bytes buf off) with _ -> None)
  | _ -> None
  | exception (Invalid_argument _ | Failure _) -> None

(* An active partition blocks frames crossing the island boundary in
   either direction. The gate sits below both lanes and the pipe's own
   frames: Data frames and acks vanish like real in-flight losses,
   Control frames come back through the retransmit timer once the window
   closes, and a partitioned TCP peer stops answering heartbeats. *)
let pass t dst =
  let blocked =
    t.faults.partitions <> []
    && begin
         let now = Loop.now t.loop in
         List.exists
           (fun p ->
             now >= p.pt_start && now < p.pt_stop
             && List.mem t.me p.pt_island <> List.mem dst p.pt_island)
           t.faults.partitions
       end
  in
  if blocked then t.partition_blocked <- t.partition_blocked + 1;
  not blocked

let raw_send t ~dst bytes =
  if pass t dst && not (t.pipe.p_send dst bytes) then
    t.send_errors <- t.send_errors + 1

(* A frame longer than the pipe can deliver would arrive cut short (or
   not at all) on every copy; it is refused here, once, as a send
   error, and never enters the retransmit table. *)
let fits t bytes =
  Bytes.length bytes <= t.pipe.p_max_frame
  || begin
       t.send_errors <- t.send_errors + 1;
       false
     end

let send t ~lane ~dst payload =
  if not t.closed then
    match lane with
    | Transport.Data ->
        t.sent_data <- t.sent_data + 1;
        if t.faults.drop_rate > 0.0 && Prng.bernoulli t.rng t.faults.drop_rate
        then t.faults_dropped <- t.faults_dropped + 1
        else
          let bytes = encode (Data_msg { src = t.me; payload }) in
          if fits t bytes then begin
            (* Sender-side jitter delays the actual write by a random
               amount, so two back-to-back sends can hit the wire (and the
               receiver) out of order — the "reordered sockets"
               condition. *)
            let post () =
              let delay = t.jitter_lo +. Prng.float t.rng t.jitter_span in
              Loop.schedule t.loop ~delay (fun () ->
                  if not t.closed then raw_send t ~dst bytes)
            in
            post ();
            if
              t.faults.dup_rate > 0.0 && Prng.bernoulli t.rng t.faults.dup_rate
            then begin
              t.faults_duplicated <- t.faults_duplicated + 1;
              post ()
            end
          end
    | Transport.Control ->
        t.sent_ctl <- t.sent_ctl + 1;
        t.ctl_seq <- t.ctl_seq + 1;
        let seq = t.ctl_seq in
        let bytes = encode (Ctl_msg { src = t.me; seq; payload }) in
        if fits t bytes then begin
          Hashtbl.replace t.unacked seq (dst, bytes);
          raw_send t ~dst bytes
        end

(* The one dispatch of received frames. The bytes come from the network,
   so a sender outside the mesh is dropped here rather than indexing a
   peer table on the ack path. *)
let deliver t buf off len =
  match decode buf off len with
  | None -> t.bad_frames <- t.bad_frames + 1
  | Some (Data_msg { src; _ } | Ctl_msg { src; _ }) when src < 0 || src >= t.n
    ->
      t.bad_frames <- t.bad_frames + 1
  | Some frame -> (
      t.received <- t.received + 1;
      match frame with
      | Data_msg { payload; _ } -> t.handler payload
      | Ctl_msg { src; seq; payload } ->
          (* Ack first (acks are cheap and idempotent); deliver only the
             first copy — retransmits of frames already processed are
             dropped here rather than burdening the protocol. *)
          raw_send t ~dst:src (encode (Ctl_ack { seq }));
          if not (Hashtbl.mem t.seen_ctl (src, seq)) then begin
            Hashtbl.replace t.seen_ctl (src, seq) ();
            t.handler payload
          end
      | Ctl_ack { seq } -> Hashtbl.remove t.unacked seq)

let retransmit_pending t =
  if Hashtbl.length t.unacked > 0 then
    Hashtbl.iter
      (fun _ (dst, bytes) ->
        t.retransmits <- t.retransmits + 1;
        raw_send t ~dst bytes)
      t.unacked

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
    ("bad_frames", t.bad_frames);
  ]
  @ t.pipe.p_counters ()

let snapshot t =
  List.map (fun (k, v) -> ("link." ^ k, float_of_int v)) (stats t)
  @ List.map (fun (k, v) -> ("link." ^ k, v)) (t.pipe.p_extras ())

(* The state's pipe until [create] opens the real one: the pipe needs the
   [io] closures, and they need the state. *)
let unopened =
  {
    p_max_frame = 0;
    p_send = (fun _ _ -> false);
    p_ready = (fun ~timeout:_ -> false);
    p_counters = (fun () -> []);
    p_extras = (fun () -> []);
    p_close = ignore;
  }

let create ~faults ~loop ~me ~n ~seed ~seq_base ~jitter open_pipe =
  let jitter_lo, jitter_hi = jitter in
  let t =
    {
      loop;
      me;
      n;
      rng = Prng.create seed;
      jitter_lo;
      jitter_span = Float.max (jitter_hi -. jitter_lo) 1e-9;
      faults;
      pipe = unopened;
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
      bad_frames = 0;
      closed = false;
    }
  in
  t.pipe <-
    open_pipe
      {
        deliver = deliver t;
        pass = pass t;
        bad_frame = (fun () -> t.bad_frames <- t.bad_frames + 1);
      };
  let rec retry_loop () =
    if not t.closed then begin
      retransmit_pending t;
      Loop.schedule loop ~delay:retransmit_every retry_loop
    end
  in
  Loop.schedule loop ~delay:retransmit_every retry_loop;
  {
    transport =
      {
        Transport.send =
          (fun ~lane ~src:_ ~dst payload -> send t ~lane ~dst payload);
        broadcast =
          (fun ~lane ~src:_ payload ->
            for dst = 0 to n - 1 do
              if dst <> me then send t ~lane ~dst payload
            done);
        set_handler = (fun id f -> if id = me then t.handler <- f);
        (* Crashes are real process deaths here; the fabric has no gate. *)
        set_down = (fun _ -> ());
        set_up = (fun ~drop_held_data:_ _ -> ());
      };
    ready = t.pipe.p_ready;
    unacked = (fun () -> Hashtbl.length t.unacked);
    stats = (fun () -> stats t);
    snapshot = (fun () -> snapshot t);
    close =
      (fun () ->
        if not t.closed then begin
          t.closed <- true;
          t.pipe.p_close ()
        end);
  }

let factory ?(faults = no_faults) ~n ~seed open_pipe =
  {
    make =
      (fun ~loop ~me ~gen ~jitter ->
        create ~faults ~loop ~me ~n
          ~seed:(Int64.add seed (Int64.of_int (1 + me + (gen * n))))
          ~seq_base:(gen * 1_000_000) ~jitter (open_pipe ~loop ~me));
  }
