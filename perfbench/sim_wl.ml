(* Workload sim-dg-n32: Damani-Garg in the discrete-event simulator.

   The benchmark composes the run itself — Engine + Network +
   Process.create_rt through Transport.of_engine/of_network, the path
   Process.create takes — so it can time every call into a layer. The
   same parameters are handed to Runner.run afterwards (untimed) and the
   two runs must agree on digests and counters; an oracle run of the same
   parameters must report no violation. *)

module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Types = Optimist_core.Types
module Process = Optimist_core.Process
module Transport = Optimist_core.Transport
module Metrics = Optimist_obs.Metrics
module Trace = Optimist_obs.Trace
module Schedule = Optimist_workload.Schedule
module Traffic = Optimist_workload.Traffic
module Runner = Optimist_runner.Runner
module Rec = Pb.Rec

let n = 32
let hops = 8
let failures = 5

(* The load of `recsim run`'s defaults, the load at which host cost per
   delivery was timed to grow from about 7 us at n=8 to about 17 us at
   n=32. *)
let rate = Runner.default_params.Runner.rate
let duration = Runner.default_params.Runner.duration

(* One rep's parameters. Crashes are spread evenly through the run, each
   at a seeded offset within its slot and on a seeded process, so every
   rep sees the same amount of recovery work. Restart cost grows with the
   crash time; an odd number of slots puts the median restart inside the
   middle slot's cluster rather than between two. The program receives
   only the schedule generated from the seed. *)
let params seed =
  let rng = Random.State.make [| Int64.to_int seed; 104729 |] in
  let slot = duration /. float_of_int failures in
  {
    Runner.default_params with
    Runner.protocol = Runner.Damani_garg;
    n;
    seed;
    pattern = Traffic.Uniform;
    rate;
    duration;
    hops;
    ordering = Network.Reorder;
    faults =
      List.init failures (fun i ->
          Schedule.Crash
            {
              at = slot *. (float_of_int i +. 0.25 +. Random.State.float rng 0.5);
              pid = Random.State.int rng n;
            });
  }

type rep = {
  engine : Engine.t;
  procs : (Traffic.state, Traffic.msg) Process.t array;
  started : int ref;  (** injections offered *)
  completed : int ref;
  latencies : float list ref;  (** host seconds, injection to last hop *)
  recoveries : float list ref;  (** host seconds of each restart event *)
  outages : float list ref;  (** crash event to first delivery after restart *)
}

(* Build one run exactly as System.create + Runner do, with the
   benchmark's wrappers around the runtime, transport and app. *)
let build (p : Runner.params) ~traced =
  let engine = Engine.create ~seed:p.seed () in
  Engine.set_tracer engine p.trace;
  let net =
    Network.create engine
      {
        (Network.default_config ~n:p.n) with
        Network.ordering = p.ordering;
        drop_probability = p.drop;
        duplicate_probability = p.dup;
      }
  in
  let registry = Metrics.registry () in
  let procs_ref = ref [||] in
  let r =
    {
      engine;
      procs = [||];
      started = ref 0;
      completed = ref 0;
      latencies = ref [];
      recoveries = ref [];
      outages = ref [];
    }
  in
  (* Chain tracking: the Traffic app rewrites the key at every hop, so the
     benchmark maps each forwarded key back to the chain it continues.
     [injecting] names the chain whose injection is being delivered. *)
  let chain_of_key : (int, int) Hashtbl.t = Hashtbl.create 65536 in
  let chain_start : (int, float) Hashtbl.t = Hashtbl.create 8192 in
  let done_chains : (int, unit) Hashtbl.t = Hashtbl.create 8192 in
  let injecting = ref (-1) in
  let crash_at = Array.make p.n nan in
  let awaiting = Array.make p.n false in
  let last_replayed = Array.make p.n 0 in
  let base = Traffic.app ~n:p.n p.pattern in
  let app =
    {
      base with
      Types.on_message =
        (fun ~me ~src st (m : Traffic.msg) ->
          (* Every handler run is preceded by exactly one bump of either
             delivered/injected or replayed: a moved replay counter marks
             a re-execution. *)
          let replayed =
            Metrics.Scope.get (Process.metrics !procs_ref.(me)) "replayed"
          in
          let replay = replayed <> last_replayed.(me) in
          last_replayed.(me) <- replayed;
          if (not replay) && awaiting.(me) && src <> Types.env_src then begin
            awaiting.(me) <- false;
            r.outages := (Pb.mono () -. crash_at.(me)) :: !(r.outages)
          end;
          let chain =
            if src = Types.env_src then !injecting
            else Option.value ~default:(-1) (Hashtbl.find_opt chain_of_key m.key)
          in
          Rec.chain := chain;
          let ((_, sends) as res) =
            Rec.span "app" (fun () -> base.Types.on_message ~me ~src st m)
          in
          if chain >= 0 then begin
            if m.hops <= 0 then begin
              if not (Hashtbl.mem done_chains chain) then begin
                Hashtbl.replace done_chains chain ();
                incr r.completed;
                r.latencies :=
                  (Pb.mono () -. Hashtbl.find chain_start chain) :: !(r.latencies)
              end
            end
            else
              List.iter
                (fun (_, (m' : Traffic.msg)) -> Hashtbl.replace chain_of_key m'.key chain)
                sends
          end;
          res);
    }
  in
  let rt0 = Transport.of_engine engine in
  let rt =
    {
      rt0 with
      Transport.schedule =
        (fun ?label ~daemon ~delay action ->
          rt0.Transport.schedule ?label ~daemon ~delay (fun () ->
              match label with
              | Some { Engine.l_kind = "restart"; l_pid; _ } ->
                  let t0 = Pb.mono () in
                  Rec.span "process.recover" action;
                  r.recoveries := (Pb.mono () -. t0) :: !(r.recoveries);
                  awaiting.(l_pid) <- true
              | _ -> Rec.span "process.timer" action));
    }
  in
  let tr0 = Transport.of_network net in
  let tr =
    if not traced then tr0
    else
      {
        tr0 with
        Transport.send =
          (fun ~lane ~src ~dst m ->
            Rec.span "network.send" (fun () -> tr0.Transport.send ~lane ~src ~dst m));
        broadcast =
          (fun ~lane ~src m ->
            Rec.span "network.send" (fun () -> tr0.Transport.broadcast ~lane ~src m));
        set_handler =
          (fun id f ->
            tr0.Transport.set_handler id (fun w ->
                Rec.span "process.handle" (fun () -> f w)));
      }
  in
  let uid = ref 0 in
  let next_uid () =
    incr uid;
    !uid
  in
  let procs =
    Array.init p.n (fun id ->
        let metrics =
          Metrics.Scope.create ~registry ~protocol:"damani-garg" ~process:id ()
        in
        Process.create_rt ~rt ~net:tr ~app ~id ~n:p.n ~metrics ~next_uid ())
  in
  procs_ref := procs;
  let label kind pid = { Engine.l_kind = kind; l_pid = pid; l_src = -1; l_info = "" } in
  let next_chain = ref 0 in
  Schedule.apply
    (Schedule.make
       ~injections:
         (Schedule.poisson_injections ~seed:(Int64.add p.seed 7919L) ~n:p.n
            ~rate:p.rate ~duration:p.duration ~hops:p.hops)
       ~faults:p.faults)
    ~inject:(fun ~at ~pid msg ->
      let chain = !next_chain in
      incr next_chain;
      ignore
        (Engine.schedule_at engine ~label:(label "inject" pid) at (fun () ->
             (* Injections offered to a crashed process are attempted
                chains that fail. *)
             incr r.started;
             Hashtbl.replace chain_start chain (Pb.mono ());
             injecting := chain;
             Rec.span "process.handle" (fun () -> Process.inject procs.(pid) msg))))
    ~crash:(fun ~at ~pid ->
      ignore
        (Engine.schedule_at engine ~label:(label "crash" pid) at (fun () ->
             crash_at.(pid) <- Pb.mono ();
             Process.fail procs.(pid))))
    ~partition:(fun ~at:_ ~groups:_ -> ())
    ~heal:(fun ~at:_ -> ());
  { r with procs }

let total procs name =
  Array.fold_left (fun acc p -> acc + Metrics.Scope.get (Process.metrics p) name) 0 procs

let counters procs =
  let acc = Hashtbl.create 32 in
  let history =
    Array.fold_left (fun a p -> a + Process.history_record_count p) 0 procs
  in
  Array.iter
    (fun p ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace acc k (v + Option.value ~default:0 (Hashtbl.find_opt acc k)))
        (Process.counters p))
    procs;
  Hashtbl.replace acc "history_records"
    (history + Option.value ~default:0 (Hashtbl.find_opt acc "history_records"));
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let digests procs =
  Array.to_list (Array.map (fun p -> Traffic.digest (Process.state p)) procs)

(* Untimed gates over the seed's parameters: the composed run (its
   digests and counters) must match Runner.run exactly, and the oracle
   must find nothing wrong. *)
let gates (p : Runner.params) ~digests ~counters =
  let reference = Runner.run p in
  let g = ref [] in
  if digests <> reference.Runner.r_digests then
    g := ("sim.digests", "composed run and Runner.run digests differ") :: !g;
  if counters <> reference.Runner.r_counters then
    g := ("sim.counters", "composed run and Runner.run counters differ") :: !g;
  let oracle = Runner.run { p with Runner.with_oracle = true } in
  (match oracle.Runner.r_violations with
  | [] -> ()
  | v :: _ ->
      g :=
        ( "sim.oracle",
          Printf.sprintf "%d violations, first: %s"
            (List.length oracle.Runner.r_violations) v )
        :: !g);
  !g

(* Gated reps: the first few measured reps are replayed through
   Runner.run. *)
let gated_reps = 3

(* One measured rep, as measured: host seconds, before calibration. *)
type sample = {
  unit_s : float;  (** the reference unit, run just before the rep *)
  setup : float;
  run : float;
  cpu : float;
  delivered : int;
  lats : Float.Array.t;
  recs : Float.Array.t;
  outs : Float.Array.t;
}

let measure ~seed ~seconds ~traced =
  let samples = ref [] in
  let started = ref 0 and completed = ref 0 and events = ref 0 in
  let spent = ref 0.0 and reps = ref 0 in
  let checked = ref [] in
  let counts = Hashtbl.create 32 in
  (* Short runs, each on its own schedule derived from the seed, are
     repeated until the measured time is spent; medians over many reps
     damp both host noise and the luck of one schedule. A reference unit
     runs before every rep and after the last, after a full collection so
     that neither it nor the rep pays for the other's garbage. Rep -1
     warms the heap and the unit's table and is not counted. *)
  let unit () =
    Gc.full_major ();
    Pb.Calib.measure ()
  in
  let rep k =
    let p = params (Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int k)) in
    let u = unit () in
    let t0 = Pb.mono () in
    let r = build p ~traced in
    let t1 = Pb.mono () in
    let c0 = Pb.cpu_s () in
    Rec.span "engine.run" (fun () -> Engine.run r.engine);
    let t2 = Pb.mono () in
    let c1 = Pb.cpu_s () in
    (p, r, u, t1 -. t0, t2 -. t1, c1 -. c0)
  in
  Rec.on := false;
  Gc.compact ();
  Pb.reset_peak_rss ();
  ignore (rep (-1));
  Rec.reset ();
  Rec.on := traced;
  while !spent < seconds || !reps < gated_reps do
    let p, r, u, setup, run, cpu = rep !reps in
    let delivered = total r.procs "delivered" in
    let fa l = Float.Array.of_list !l in
    samples :=
      {
        unit_s = u;
        setup;
        run;
        cpu;
        delivered;
        lats = fa r.latencies;
        recs = fa r.recoveries;
        outs = fa r.outages;
      }
      :: !samples;
    started := !started + !(r.started);
    completed := !completed + !(r.completed);
    events := !events + Engine.events_fired r.engine;
    let cs = counters r.procs in
    List.iter
      (fun (k, v) ->
        Hashtbl.replace counts k (v + Option.value ~default:0 (Hashtbl.find_opt counts k)))
      cs;
    if !reps < gated_reps then
      checked := (p, digests r.procs, cs, !(r.started)) :: !checked;
    spent := !spent +. run;
    incr reps
  done;
  let last_unit = unit () in
  let rss = Pb.peak_rss_mb () in
  (* A rep's timings are scaled by the median of the units around it:
     the one before it, the one before the rep before, and the two after. *)
  let samples = Array.of_list (List.rev !samples) in
  let nrep = Array.length samples in
  let unit_at i = if i >= nrep then last_unit else samples.(i).unit_s in
  let factor i =
    Pb.Calib.factor (List.map unit_at (List.filter (fun j -> j >= 0) [ i - 1; i; i + 1; i + 2 ]))
  in
  let factors = Array.init nrep factor in
  let per_rep f = List.init nrep (fun i -> f factors.(i) samples.(i)) in
  let pooled f =
    List.concat
      (per_rep (fun k s -> List.map (fun x -> x *. k) (Float.Array.to_list (f s))))
  in
  let latencies = pooled (fun s -> s.lats) in
  let recoveries = pooled (fun s -> s.recs) in
  let outages = pooled (fun s -> s.outs) in
  let gate_results =
    List.rev_map (fun (p, digests, counters, n) -> (gates p ~digests ~counters, n)) !checked
  in
  let gates = List.concat_map fst gate_results in
  let failed = List.fold_left (fun a (g, n) -> if g = [] then a else a + n) 0 gate_results in
  let c name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name)) in
  let ms l = List.map (fun x -> x *. 1e3) l in
  let e2e =
    [
      ( "delivered_per_s",
        Pb.median (per_rep (fun k s -> float_of_int s.delivered /. (s.run *. k))),
        "msg/s" );
      ("chain_latency_p50_ms", Pb.percentile 0.5 latencies *. 1e3, "ms");
      ("chain_latency_p95_ms", Pb.percentile 0.95 latencies *. 1e3, "ms");
      ("completed_ratio", float_of_int !completed /. float_of_int !started, "ratio");
      ("recovery_ms_p50", Pb.median (ms recoveries), "ms");
      ("outage_ms_p50", Pb.median (ms outages), "ms");
      ( "cpu_ms_per_kdeliv",
        Pb.median (per_rep (fun k s -> s.cpu *. k *. 1e6 /. float_of_int s.delivered)),
        "ms" );
      ("peak_rss_mb", rss, "MB");
      ("setup_s", Pb.median (per_rep (fun k s -> s.setup *. k)), "s");
    ]
  in
  let extra =
    ("engine.events", float_of_int !events)
    :: List.map
         (fun k -> (k, c k))
         [
           "piggyback_words"; "sent"; "history_records"; "discarded_obsolete";
           "rollbacks"; "replayed"; "delivered"; "injected"; "log_truncated";
         ]
  in
  let units = Array.to_list (Array.map (fun s -> s.unit_s) samples) in
  ( {
    Pb.e2e;
    attempted = !started;
    failed;
    gates;
    info =
      [
        ("reps", string_of_int !reps);
        ("chains_started", string_of_int !started);
        ("chains_completed", string_of_int !completed);
        ("chains_lost", string_of_int (!started - !completed));
        ("recovery_samples", string_of_int (List.length recoveries));
        ("outage_samples", string_of_int (List.length outages));
        ("deliveries", Printf.sprintf "%.0f" (c "delivered"));
        ("measured_s", Printf.sprintf "%.3f" !spent);
        ( "calib_unit_ms",
          Printf.sprintf "p10 %.3f p50 %.3f p90 %.3f" (Pb.percentile 0.1 units *. 1e3)
            (Pb.median units *. 1e3) (Pb.percentile 0.9 units *. 1e3) );
        ( "raw_delivered_per_s",
          Printf.sprintf "%.1f"
            (Pb.median (per_rep (fun _ s -> float_of_int s.delivered /. s.run))) );
      ];
  },
    extra )
