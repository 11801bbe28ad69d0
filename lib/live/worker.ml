module Types = Optimist_core.Types
module Process = Optimist_core.Process
module Transport = Optimist_core.Transport
module Pessimistic = Optimist_protocols.Pessimistic
module Sender_based = Optimist_protocols.Sender_based
module Strom_yemini = Optimist_protocols.Strom_yemini
module Checkpoint_only = Optimist_protocols.Checkpoint_only
module Coordinated = Optimist_protocols.Coordinated
module Protocol_intf = Optimist_protocols.Protocol_intf
module Registry = Optimist_protocols.Registry
module Traffic = Optimist_workload.Traffic
module Schedule = Optimist_workload.Schedule
module Trace = Optimist_obs.Trace
module Span = Optimist_obs.Span
module Metrics = Optimist_obs.Metrics
module Json = Optimist_obs.Json

(* perfbench/bench.ml lints its live traces with [live_check_rules Dg];
   this shim keeps that one caller compiling against the registry. *)
type dg = Dg

let live_check_rules (_ : dg) =
  Option.get (Registry.entry Registry.Damani_garg).live_rules

type telemetry = Off | Ring | Full

let telemetry_name = function Off -> "off" | Ring -> "ring" | Full -> "full"

let telemetry_of_string = function
  | "off" -> Some Off
  | "ring" -> Some Ring
  | "full" -> Some Full
  | _ -> None

type cfg = {
  dir : string;
  me : int;
  n : int;
  protocol : Registry.id;
  gen : int;  (** incarnation: 0 on first spawn, +1 per restart *)
  seed : int64;
  base : float;  (** shared [Unix.gettimeofday] origin of the run *)
  duration : float;  (** injection window, seconds *)
  settle : float;  (** extra drain time after the window *)
  rate : float;
  hops : int;
  pattern : Traffic.pattern;
  jitter : float * float;
  faults : Livenet.faults;
  telemetry : telemetry;
  link : Link.factory option;
      (** [None] = the classic single-host UDS mesh built from [dir],
          [faults] and [seed]; [Some f] = an alternative fabric (the
          cluster's TCP link). *)
}

type outcome = {
  counters : (string * int) list;
  digest : int;
  epoch : int;
}

let trace_file ~dir ~me ~gen =
  Filename.concat dir (Printf.sprintf "trace.%d.g%d.jsonl" me gen)

let stats_file ~dir ~me ~gen =
  Filename.concat dir (Printf.sprintf "worker.%d.g%d.json" me gen)

let store_dir ~dir ~me = Filename.concat dir (Printf.sprintf "store.w%d" me)

(* Every incarnation writes its own trace file: a SIGKILL can tear the
   last line of the dying incarnation's file, and per-file isolation
   keeps that torn tail from corrupting the successor's stream. The
   merge step (Merge) skips unparsable lines and re-sorts globally.

   Telemetry modes: [Full] writes the JSONL file; [Ring] keeps events in
   a bounded in-memory ring (instrumentation runs, nothing hits disk —
   the overhead-bench middle ground); [Off] uses the null recorder, so
   the [Trace.enabled] guards short-circuit everywhere. *)
let open_trace cfg =
  match cfg.telemetry with
  | Off -> (Trace.null, None)
  | Ring ->
      let tracer = Trace.create () in
      Trace.attach tracer (Trace.Ring.sink (Trace.Ring.create ()));
      (tracer, None)
  | Full ->
      let oc = open_out_bin (trace_file ~dir:cfg.dir ~me:cfg.me ~gen:cfg.gen) in
      let tracer = Trace.create () in
      (* Flush every line: a Send must be on disk before the datagram is
         on the wire, otherwise a crash could yield a receiver-side
         Deliver whose Send the merged trace never saw (a false
         OPT002). *)
      Trace.attach tracer
        (Trace.jsonl_sink (fun line ->
             output_string oc line;
             flush oc));
      (tracer, Some oc)

let write_stats cfg ~net_stats ~store_stats outcome =
  let kv l = List.map (fun (k, v) -> (k, Json.Int v)) l in
  let j =
    Json.Obj
      [
        ("pid", Json.Int cfg.me);
        ("gen", Json.Int cfg.gen);
        ("protocol", Json.String (Registry.name cfg.protocol));
        ("telemetry", Json.String (telemetry_name cfg.telemetry));
        ("epoch", Json.Int outcome.epoch);
        ("digest", Json.Int outcome.digest);
        ("counters", Json.Obj (kv outcome.counters));
        ("net", Json.Obj (kv net_stats));
        ("store", Json.Obj (kv store_stats));
      ]
  in
  let path = stats_file ~dir:cfg.dir ~me:cfg.me ~gen:cfg.gen in
  let oc = open_out path in
  output_string oc (Json.to_string j);
  output_string oc "\n";
  close_out oc

(* Injection schedule: derived from the run seed exactly like the
   simulated runner derives it, shared by every worker, filtered down to
   this pid. A restarted incarnation recomputes the same schedule and
   keeps only the injections still in the future — the ones its
   predecessor already absorbed are in the stable log and come back via
   replay, so re-injecting them would double them. *)
let schedule_injections cfg loop inject =
  let injections =
    Schedule.poisson_injections
      ~seed:(Int64.add cfg.seed 7919L)
      ~n:cfg.n ~rate:cfg.rate ~duration:cfg.duration ~hops:cfg.hops
  in
  let now = Loop.now loop in
  List.iter
    (fun (inj : Schedule.injection) ->
      if inj.pid = cfg.me && inj.at > now then
        Loop.schedule loop ~delay:(inj.at -. now) (fun () ->
            inject (Traffic.fresh ~key:inj.key ~hops:inj.hops)))
    injections

(* Unique across incarnations: a replayed send must not collide with a
   new one, so the generation is folded into the uid. *)
let uid_gen cfg =
  let seq = ref 0 in
  fun () ->
    incr seq;
    (((cfg.gen lsl 28) + !seq) * cfg.n) + cfg.me

(* --- telemetry plumbing --- *)

let snapshot_period = 0.5

let emit_snapshot cfg loop ~ver values =
  let tracer = Loop.tracer loop in
  if Trace.enabled tracer then
    Trace.emit tracer
      {
        Trace.at = Loop.now loop;
        pid = cfg.me;
        ver;
        clock = [||];
        kind =
          Trace.Snapshot { protocol = Registry.name cfg.protocol; values };
      }

(* Periodic metric snapshots, re-armed until the loop deadline drops the
   pending timer. [ver] and [scope] are thunked because the snapshot
   content must reflect the protocol state at fire time. *)
let schedule_snapshots cfg loop ~ver scope =
  if Trace.enabled (Loop.tracer loop) then begin
    let rec tick () =
      emit_snapshot cfg loop ~ver:(ver ())
        (("gen", float_of_int cfg.gen) :: Metrics.Scope.snapshot (scope ()));
      Loop.schedule loop ~delay:snapshot_period tick
    in
    Loop.schedule loop ~delay:snapshot_period tick
  end

let final_snapshot cfg loop ~ver scope =
  emit_snapshot cfg loop ~ver
    (("gen", float_of_int cfg.gen) :: Metrics.Scope.snapshot scope)

(* Wrap the transport so every inbound datagram's protocol handling runs
   under a span. One span per message is cheap next to the syscall that
   delivered it, and it is what makes per-message latency visible in the
   merged timeline. *)
let span_transport sctx (net : 'a Transport.t) =
  {
    net with
    Transport.set_handler =
      (fun pid f ->
        net.Transport.set_handler pid (fun m ->
            Span.with_ sctx "handle" (fun () -> f m)));
  }

(* One recovery record per restarted incarnation: wall-clock latency of
   the whole path (store reload -> process rebuild -> recover/replay),
   plus what it cost. [depth] is the protocol's orphan-discard count
   ("log_truncated"); a clean crash-replay recovery legitimately reports
   0 — nothing that survived was rolled back. *)
let emit_recovery cfg loop store ~ver ~latency ~replayed ~depth ~bytes_before =
  emit_snapshot cfg loop ~ver
    [
      ("gen", float_of_int cfg.gen);
      ("recovery.bytes_reread", float_of_int (Store.bytes_read store - bytes_before));
      ("recovery.latency", latency);
      ("recovery.messages_replayed", float_of_int replayed);
      ("recovery.rollback_depth", float_of_int depth);
    ]

(* --- live adapters ---

   On the live substrate the protocols differ only in how their stable
   hooks map onto the Store, how a restarted incarnation reloads its
   image, which version the telemetry carries and which metric counts a
   recovery's rollback depth. An adapter supplies those; [run] does the
   rest. *)

type env = {
  cfg : cfg;
  loop : Loop.t;
  store : Store.t;
  span : string -> (unit -> unit) -> unit;
  app : (Traffic.state, Traffic.msg) Types.app;
}

(* A running protocol instance as [run] sees it. [depth] names the
   metric counting a recovery's rollback depth; [None] for protocols
   that never roll surviving state back. *)
type instance = {
  recover : unit -> unit;
  version : unit -> int;
  epoch : unit -> int;
  depth : string option;
  inject : Traffic.msg -> unit;
  metrics : unit -> Metrics.Scope.t;
  finish : unit -> unit;
  counters : unit -> (string * int) list;
  state : unit -> Traffic.state;
}

(* The wire type is existential: each adapter fixes its own. *)
type adapter = Adapter : (env -> 'w Transport.t -> instance) -> adapter

module Instance (P : sig
  include Protocol_intf.INSTANCE

  val recover : ('s, 'm) t -> unit
end) =
struct
  (* By default an instance versions its telemetry by incarnation and
     keeps its epoch in the store's gen slot. *)
  let make ?version ?epoch ?depth ?(finish = ignore) env p =
    {
      recover = (fun () -> P.recover p);
      version = Option.value version ~default:(fun () -> env.cfg.gen);
      epoch = Option.value epoch ~default:(fun () -> Store.load_gen env.store);
      depth;
      inject = P.inject p;
      metrics = (fun () -> P.metrics p);
      finish;
      counters = (fun () -> P.counters p);
      state = (fun () -> P.state p);
    }
end

let restore env image = if env.cfg.gen > 0 then Some (image ()) else None

let log_appended env entries =
  env.span "store.log_flush" (fun () ->
      List.iter (Store.append_log env.store) entries)

let log_truncated env ~stable =
  env.span "store.truncate" (fun () -> Store.truncate_log env.store ~stable)

let checkpoint_recorded env ~position cp =
  env.span "store.checkpoint" (fun () ->
      Store.append_checkpoint env.store ~position cp)

let checkpoints_discarded_after env ~position =
  Store.discard_checkpoints_after env.store ~position

let aux_recorded env aux =
  env.span "store.tokens" (fun () -> Store.write_tokens env.store [ aux ])

let live_dg_config =
  {
    Types.default_config with
    checkpoint_interval = 1.0;
    flush_interval = 0.25;
    restart_delay = 0.3;
    retransmit_lost = true;
  }

let damani_garg env net =
  let store = env.store in
  let stable =
    {
      Process.log_appended = log_appended env;
      log_truncated = log_truncated env;
      checkpoint_recorded = checkpoint_recorded env;
      checkpoints_discarded_after = checkpoints_discarded_after env;
      tokens_logged =
        (fun tokens ->
          env.span "store.tokens" (fun () -> Store.write_tokens store tokens));
    }
  in
  let image () =
    {
      Process.im_log = Store.load_log store;
      im_checkpoints = Store.load_checkpoints store;
      im_tokens = Store.load_tokens store;
    }
  in
  let p =
    Process.create_rt ~rt:(Loop.runtime env.loop) ~net ~app:env.app
      ~id:env.cfg.me ~n:env.cfg.n ~config:live_dg_config ~stable
      ?restore:(restore env image) ~next_uid:(uid_gen env.cfg) ()
  in
  Store.write_gen store env.cfg.gen;
  let version () = Process.version p in
  let module I = Instance (Process) in
  I.make env p ~version ~epoch:version ~depth:"log_truncated"
    ~finish:(fun () -> Process.flush_now p)

let live_pessimist_config =
  {
    Pessimistic.default_config with
    sync_write_latency = 0.002;
    checkpoint_interval = 1.0;
    restart_delay = 0.3;
  }

let pessimistic env net =
  let store = env.store in
  let stable =
    {
      Pessimistic.log_appended = log_appended env;
      checkpoint_recorded = checkpoint_recorded env;
      epoch_recorded = Store.write_gen store;
    }
  in
  let image () =
    {
      Pessimistic.im_log = Store.load_log store;
      im_checkpoints = Store.load_checkpoints store;
      im_epoch = Store.load_gen store;
    }
  in
  let p =
    Pessimistic.create_rt ~rt:(Loop.runtime env.loop) ~net ~app:env.app
      ~id:env.cfg.me ~n:env.cfg.n ~config:live_pessimist_config ~stable
      ?restore:(restore env image) ~next_uid:(uid_gen env.cfg) ()
  in
  let module I = Instance (Pessimistic) in
  I.make env p

let live_sender_config =
  { Sender_based.checkpoint_interval = 1.0; restart_delay = 0.3 }

(* Retransmissions arrive asynchronously after the recovery broadcast,
   so [replayed] counts only what was in by the time recover returned;
   peers never roll back. *)
let sender_based env net =
  let store = env.store in
  let stable =
    {
      Sender_based.checkpoint_recorded = checkpoint_recorded env;
      epoch_recorded = Store.write_gen store;
    }
  in
  let image () =
    {
      Sender_based.im_checkpoints = Store.load_checkpoints store;
      im_epoch = Store.load_gen store;
    }
  in
  let p =
    Sender_based.create_rt ~rt:(Loop.runtime env.loop) ~net ~app:env.app
      ~id:env.cfg.me ~n:env.cfg.n ~config:live_sender_config ~stable
      ?restore:(restore env image) ~next_uid:(uid_gen env.cfg) ()
  in
  let module I = Instance (Sender_based) in
  I.make env p

let live_sy_config =
  {
    Strom_yemini.checkpoint_interval = 1.0;
    flush_interval = 0.25;
    restart_delay = 0.3;
  }

let strom_yemini env net =
  let store = env.store in
  (* The announcement table is small and rewritten whole on every change
     (the tokens file is a single-blob slot, like D-G's token log). *)
  let announcements =
    ref (Store.load_tokens store : Strom_yemini.announcement list)
  in
  let stable =
    {
      Strom_yemini.log_flushed = log_appended env;
      log_truncated = (fun stable -> log_truncated env ~stable);
      checkpoint_recorded = checkpoint_recorded env;
      checkpoints_discarded_after = checkpoints_discarded_after env;
      announcement_recorded =
        (fun a ->
          announcements := a :: !announcements;
          env.span "store.tokens" (fun () ->
              Store.write_tokens store !announcements));
    }
  in
  let image () =
    {
      Strom_yemini.im_log = Store.load_log store;
      im_checkpoints = Store.load_checkpoints store;
      im_announcements = !announcements;
    }
  in
  let p =
    Strom_yemini.create_rt ~rt:(Loop.runtime env.loop) ~net ~app:env.app
      ~id:env.cfg.me ~n:env.cfg.n ~config:live_sy_config ~stable
      ?restore:(restore env image) ~next_uid:(uid_gen env.cfg) ()
  in
  Store.write_gen store env.cfg.gen;
  let version () = Strom_yemini.incarnation p in
  let module I = Instance (Strom_yemini) in
  I.make env p ~version ~epoch:version ~depth:"log_truncated"

let live_cpo_config =
  { Checkpoint_only.checkpoint_interval = 1.0; restart_delay = 0.3 }

(* No log, so nothing replays; the cost of a recovery is the work it
   forfeits. *)
let checkpoint_only env net =
  let store = env.store in
  let stable =
    {
      Checkpoint_only.checkpoint_recorded = checkpoint_recorded env;
      checkpoints_discarded_after = checkpoints_discarded_after env;
      aux_recorded = aux_recorded env;
    }
  in
  let image () =
    let aux =
      match (Store.load_tokens store : Checkpoint_only.aux list) with
      | a :: _ -> a
      | [] ->
          {
            Checkpoint_only.ax_epoch = 0;
            ax_floor = Array.make env.cfg.n max_int;
            ax_peer_epoch = Array.make env.cfg.n 0;
          }
    in
    {
      Checkpoint_only.im_checkpoints = Store.load_checkpoints store;
      im_aux = aux;
    }
  in
  let p =
    Checkpoint_only.create_rt ~rt:(Loop.runtime env.loop) ~net ~app:env.app
      ~id:env.cfg.me ~n:env.cfg.n ~config:live_cpo_config ~stable
      ?restore:(restore env image) ~next_uid:(uid_gen env.cfg) ()
  in
  Store.write_gen store env.cfg.gen;
  let module I = Instance (Checkpoint_only) in
  I.make env p ~depth:"lost_states"

let live_koo_config =
  { Coordinated.checkpoint_interval = 1.0; restart_delay = 0.3 }

let coordinated env net =
  let store = env.store in
  let stable =
    {
      Coordinated.snapshot_committed =
        (fun sn ->
          checkpoint_recorded env ~position:sn.Coordinated.sn_round sn);
      aux_recorded = aux_recorded env;
    }
  in
  let image () =
    let committed =
      match Store.load_checkpoints store with
      | (sn, _) :: _ -> sn
      | [] ->
          { Coordinated.sn_state = env.app.Types.init env.cfg.me; sn_round = 0 }
    in
    let aux =
      match (Store.load_tokens store : Coordinated.aux list) with
      | a :: _ -> a
      | [] ->
          {
            Coordinated.ax_epoch = 0;
            ax_peer_epoch = Array.make env.cfg.n 0;
            ax_round = 0;
          }
    in
    { Coordinated.im_committed = committed; im_aux = aux }
  in
  let p =
    Coordinated.create_rt ~rt:(Loop.runtime env.loop) ~net ~app:env.app
      ~id:env.cfg.me ~n:env.cfg.n ~config:live_koo_config ~stable
      ?restore:(restore env image) ~next_uid:(uid_gen env.cfg) ()
  in
  Store.write_gen store env.cfg.gen;
  let module I = Instance (Coordinated) in
  I.make env p ~depth:"lost_states"

(* The live-adapter table: the protocols the worker can host. *)
let adapter = function
  | Registry.Damani_garg -> Some (Adapter damani_garg)
  | Pessimistic -> Some (Adapter pessimistic)
  | Sender_based -> Some (Adapter sender_based)
  | Strom_yemini -> Some (Adapter strom_yemini)
  | Checkpoint_only -> Some (Adapter checkpoint_only)
  | Coordinated -> Some (Adapter coordinated)
  | Damani_garg_no_hold | Peterson_kearns -> None

let has_adapter id = Option.is_some (adapter id)

(* Wire-level telemetry rides the same Snapshot machinery as protocol
   metrics, in separate link.*-valued records: the recovery profiler
   keys on "delivered"/"recovery.*" and ignores them, while the bench
   and dashboards get per-link byte/frame/reconnect series for free. *)
let schedule_link_snapshots cfg loop (link : _ Link.t) =
  if Trace.enabled (Loop.tracer loop) then begin
    let rec tick () =
      emit_snapshot cfg loop ~ver:cfg.gen
        (("gen", float_of_int cfg.gen) :: link.Link.snapshot ());
      Loop.schedule loop ~delay:snapshot_period tick
    in
    Loop.schedule loop ~delay:snapshot_period tick
  end

(* [run] is handed the link's transport at the payload type its adapter
   fixes. *)
let with_net cfg loop run =
  let factory =
    match cfg.link with
    | Some f -> f
    | None ->
        Livenet.factory ~faults:cfg.faults ~dir:cfg.dir ~n:cfg.n
          ~seed:cfg.seed ()
  in
  let link =
    factory.Link.make ~loop ~me:cfg.me ~gen:cfg.gen ~jitter:cfg.jitter
  in
  (* Gen 0 waits for the whole mesh to come up before the protocol starts
     talking; restarted incarnations find every peer already present. *)
  if not (link.Link.ready ~timeout:10.0) then (
    prerr_endline
      (Printf.sprintf "worker %d: peers did not appear within 10s" cfg.me);
    exit 1);
  let store = Store.open_ (store_dir ~dir:cfg.dir ~me:cfg.me) in
  schedule_link_snapshots cfg loop link;
  let outcome = run link.Link.transport store in
  emit_snapshot cfg loop ~ver:cfg.gen
    (("gen", float_of_int cfg.gen) :: link.Link.snapshot ());
  write_stats cfg
    ~net_stats:(link.Link.stats ())
    ~store_stats:(Store.stats store) outcome;
  Store.close store;
  link.Link.close ()

(* The generic driver: build the protocol through its adapter (reloading
   the stable image on a restart), recover, run to the deadline. *)
let run cfg loop sctx (Adapter start) =
  with_net cfg loop @@ fun net store ->
  let recovering = cfg.gen > 0 in
  let rec_span = if recovering then Some (Span.start sctx "recovery") else None in
  let bytes_before = Store.bytes_read store in
  let env =
    {
      cfg;
      loop;
      store;
      span = (fun name f -> Span.with_ sctx name f);
      app = Traffic.app ~n:cfg.n cfg.pattern;
    }
  in
  let p = start env (span_transport sctx net) in
  Span.set_version sctx p.version;
  (match rec_span with
  | None -> ()
  | Some sp ->
      p.recover ();
      let latency = Span.finish sctx sp in
      let m = p.metrics () in
      emit_recovery cfg loop store ~ver:(p.version ()) ~latency
        ~replayed:(Metrics.Scope.get m "replayed")
        ~depth:(Option.fold ~none:0 ~some:(Metrics.Scope.get m) p.depth)
        ~bytes_before);
  schedule_snapshots cfg loop ~ver:p.version p.metrics;
  schedule_injections cfg loop p.inject;
  Loop.run loop ~until:(cfg.duration +. cfg.settle);
  p.finish ();
  final_snapshot cfg loop ~ver:(p.version ()) (p.metrics ());
  {
    counters = p.counters ();
    digest = Traffic.digest (p.state ());
    epoch = p.epoch ();
  }

let main cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let adapter =
    match adapter cfg.protocol with
    | Some a -> a
    | None ->
        invalid_arg
          (Printf.sprintf "Worker: %s does not run live"
             (Registry.name cfg.protocol))
  in
  (* Strom-Yemini assumes FIFO channels; zero jitter keeps the datagram
     mesh order-preserving enough for the assumption to hold in practice
     (kernel AF_UNIX queues are FIFO per socket pair). *)
  let cfg =
    if (Registry.entry cfg.protocol).fifo then { cfg with jitter = (0.0, 0.0) }
    else cfg
  in
  let tracer, trace_oc = open_trace cfg in
  let loop = Loop.create ~tracer ~base:cfg.base () in
  let sctx =
    Span.create ~tracer ~now:(fun () -> Loop.now loop) ~pid:cfg.me ()
  in
  run cfg loop sctx adapter;
  Trace.close tracer;
  Option.iter close_out_noerr trace_oc
