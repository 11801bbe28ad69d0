module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Counters = Optimist_util.Stats.Counters
module Metrics = Optimist_obs.Metrics
module Trace = Optimist_obs.Trace
module Types = Optimist_core.Types
module System = Optimist_core.System
module Process = Optimist_core.Process
module Oracle = Optimist_oracle.Oracle
module Schedule = Optimist_workload.Schedule
module Traffic = Optimist_workload.Traffic
module Check = Optimist_check.Check
module Registry = Optimist_protocols.Registry
module Protocol_intf = Optimist_protocols.Protocol_intf

type protocol = Registry.id =
  | Damani_garg
  | Damani_garg_no_hold
  | Pessimistic
  | Sender_based
  | Strom_yemini
  | Peterson_kearns
  | Checkpoint_only
  | Coordinated

type check_mode = No_check | Check | Check_strict

type params = {
  protocol : protocol;
  n : int;
  seed : int64;
  pattern : Traffic.pattern;
  rate : float;
  duration : float;
  hops : int;
  faults : Schedule.fault list;
  ordering : Network.ordering;
  drop : float;  (** Data-message loss probability *)
  dup : float;  (** Data-message duplication probability *)
  with_oracle : bool;
  trace : Trace.t;
  check : check_mode;
}

let default_params =
  {
    protocol = Damani_garg;
    n = 4;
    seed = 1L;
    pattern = Traffic.Uniform;
    rate = 0.05;
    duration = 500.0;
    hops = 6;
    faults = [];
    ordering = Network.Reorder;
    drop = 0.0;
    dup = 0.0;
    with_oracle = false;
    trace = Trace.null;
    check = No_check;
  }

type report = {
  r_protocol : string;
  r_params : params;
  r_counters : (string * int) list;
  r_net : (string * int) list;
  r_digests : int list;
  r_events : int;
  r_virtual_end : float;
  r_oracle_stats : (int * int * int) option;
  r_violations : string list;
  r_check : Check.violation list;
  r_registry : Metrics.registry;
}

let counter r name =
  match List.assoc_opt name r.r_counters with Some v -> v | None -> 0

let merge_counters dumps =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun dump ->
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt acc k with
          | Some r -> r := !r + v
          | None -> Hashtbl.add acc k (ref v))
        dump)
    dumps;
  Hashtbl.fold (fun k r l -> (k, !r) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let injections params =
  Schedule.poisson_injections ~seed:(Int64.add params.seed 7919L) ~n:params.n
    ~rate:params.rate ~duration:params.duration ~hops:params.hops

let net_config params =
  {
    (Network.default_config ~n:params.n) with
    Network.ordering = params.ordering;
    drop_probability = params.drop;
    duplicate_probability = params.dup;
  }

(* The Damani-Garg variants run through System (they share lib/core). *)
let run_damani params ~name ~hold ~monitor =
  let oracle = if params.with_oracle then Some (Oracle.create ~n:params.n) else None in
  let tracer = Option.map Oracle.tracer oracle in
  let config = { Types.default_config with Types.hold_undeliverable = hold } in
  let app = Traffic.app ~n:params.n params.pattern in
  let registry = Metrics.registry () in
  let sys =
    System.create ~seed:params.seed ~net_config:(net_config params) ~config
      ?tracer ~trace:params.trace ~registry ~protocol:name ~n:params.n ~app ()
  in
  let schedule = Schedule.make ~injections:(injections params) ~faults:params.faults in
  Schedule.apply schedule
    ~inject:(fun ~at ~pid msg -> System.inject_at sys ~at ~pid msg)
    ~crash:(fun ~at ~pid -> System.fail_at sys ~at ~pid)
    ~partition:(fun ~at ~groups -> System.partition_at sys ~at ~groups)
    ~heal:(fun ~at -> System.heal_at sys ~at);
  System.run sys;
  (* Online sanitizer cross-check against the ground-truth timeline:
     the monitor reconstructed failure/rollback counts from the event
     stream alone; the oracle observed the real states (OPT014). *)
  (match (monitor, oracle) with
  | Some m, Some o ->
      Check.Monitor.cross_check m ~n:params.n ~failures:(Oracle.failures o)
        ~rollbacks_of:(Oracle.rollbacks_of o)
  | _ -> ());
  let engine = System.engine sys in
  let dumps = List.map snd (System.counters sys) in
  let history_records =
    Array.fold_left
      (fun acc p -> acc + Process.history_record_count p)
      0 (System.processes sys)
  in
  {
    r_protocol = name;
    r_params = params;
    r_counters = merge_counters ([ ("history_records", history_records) ] :: dumps);
    r_net = Counters.to_list (Network.stats (System.network sys));
    r_digests =
      Array.to_list
        (Array.map (fun p -> Traffic.digest (Process.state p)) (System.processes sys));
    r_events = Engine.events_fired engine;
    r_virtual_end = Engine.now engine;
    r_oracle_stats = Option.map Oracle.status_counts oracle;
    r_violations =
      (match oracle with
      | None -> []
      | Some o ->
          List.map
            (fun v -> v.Oracle.check ^ ": " ^ v.Oracle.detail)
            (Oracle.check o));
    r_check = [];
    r_registry = registry;
  }

type baseline = {
  engine : Engine.t;
  registry : Metrics.registry;
  inject : int -> Traffic.msg -> unit;
  fail : int -> unit;
  alive : int -> bool;
  digest : int -> int;
}

(* One generic driver for every baseline: the runner schedules its
   workload on the result, the model checker its own. *)
let baseline (module P : Protocol_intf.SIM) ~name ~seed ~trace ~net_config
    ~pattern ~n =
  let engine = Engine.create ~seed () in
  Engine.set_tracer engine trace;
  let net = P.make_net engine net_config in
  let registry = Metrics.registry () in
  let uid = ref 0 in
  let next_uid () = incr uid; !uid in
  let app = Traffic.app ~n pattern in
  let procs =
    Array.init n (fun id ->
        let metrics =
          Metrics.Scope.create ~registry ~protocol:name ~process:id ()
        in
        P.create ~engine ~net ~app ~id ~n ~config:P.default_config ~metrics
          ~next_uid ())
  in
  {
    engine;
    registry;
    inject = (fun pid msg -> P.inject procs.(pid) msg);
    fail = (fun pid -> P.fail procs.(pid));
    alive = (fun pid -> P.alive procs.(pid));
    digest = (fun pid -> Traffic.digest (P.state procs.(pid)));
  }

let run_baseline params ~name m =
  let b =
    baseline m ~name ~seed:params.seed ~trace:params.trace
      ~net_config:(net_config params) ~pattern:params.pattern ~n:params.n
  in
  let schedule = Schedule.make ~injections:(injections params) ~faults:params.faults in
  Schedule.apply schedule
    ~inject:(fun ~at ~pid msg ->
      ignore (Engine.schedule_at b.engine at (fun () -> b.inject pid msg)))
    ~crash:(fun ~at ~pid ->
      ignore (Engine.schedule_at b.engine at (fun () -> b.fail pid)))
    ~partition:(fun ~at:_ ~groups:_ -> ())
    ~heal:(fun ~at:_ -> ());
  Engine.run b.engine;
  {
    r_protocol = name;
    r_params = params;
    r_counters = Metrics.totals b.registry;
    r_net = [];
    r_digests = List.init params.n b.digest;
    r_events = Engine.events_fired b.engine;
    r_virtual_end = Engine.now b.engine;
    r_oracle_stats = None;
    r_violations = [];
    r_check = [];
    r_registry = b.registry;
  }

let dispatch params ~monitor =
  let e = Registry.entry params.protocol in
  match e.Registry.sim with
  | Registry.Core { hold } -> run_damani params ~name:e.name ~hold ~monitor
  | Registry.Baseline m -> run_baseline params ~name:e.name m

let run params =
  match params.check with
  | No_check -> dispatch params ~monitor:None
  | Check | Check_strict ->
      (* The sanitizer is a trace sink, so checking forces a live
         recorder even when the caller did not ask for tracing. *)
      let trace =
        if params.trace == Trace.null then Trace.create () else params.trace
      in
      let monitor =
        Check.Monitor.create
          ~rules:(Registry.entry params.protocol).sim_rules ()
      in
      Trace.attach trace (Check.Monitor.sink monitor);
      let r = dispatch { params with trace } ~monitor:(Some monitor) in
      let violations = Check.Monitor.finish monitor in
      let scope =
        Metrics.Scope.create ~registry:r.r_registry ~protocol:r.r_protocol
          ~process:(-1) ()
      in
      Metrics.Scope.incr ~by:(List.length violations) scope "check.violations";
      { r with r_check = violations }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>protocol: %s@,events: %d  virtual end: %.1f@," r.r_protocol
    r.r_events r.r_virtual_end;
  List.iter (fun (k, v) -> Format.fprintf ppf "%-28s %d@," k v) r.r_counters;
  (match r.r_oracle_stats with
  | Some (live, lost, discarded) ->
      Format.fprintf ppf "oracle: live=%d lost=%d discarded=%d@," live lost discarded
  | None -> ());
  List.iter (fun v -> Format.fprintf ppf "VIOLATION %s@," v) r.r_violations;
  List.iter
    (fun v -> Format.fprintf ppf "CHECK %a@," Check.pp_violation v)
    r.r_check;
  Format.fprintf ppf "@]"
