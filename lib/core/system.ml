module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Metrics = Optimist_obs.Metrics
open Types

type ('s, 'm) t = {
  engine : Engine.t;
  net : 'm wire Network.t;
  procs : ('s, 'm) Process.t array;
}

let create ?(seed = 1L) ?net_config ?config ?tracer ?trace ?registry
    ?(protocol = "damani-garg") ?on_output ~n ~app () =
  let engine = Engine.create ~seed () in
  (match trace with Some tr -> Engine.set_tracer engine tr | None -> ());
  let net_config =
    match net_config with Some c -> c | None -> Network.default_config ~n
  in
  if net_config.Network.n <> n then
    invalid_arg "System.create: net_config.n disagrees with n";
  let net = Network.create engine net_config in
  let uid = ref 0 in
  let next_uid () =
    incr uid;
    !uid
  in
  let procs =
    Array.init n (fun id ->
        let metrics =
          Option.map
            (fun registry ->
              Metrics.Scope.create ~registry ~protocol ~process:id ())
            registry
        in
        Process.create ~engine ~net ~app ~id ~n ?config ?tracer ?metrics
          ?on_output ~next_uid ())
  in
  { engine; net; procs }

let engine t = t.engine

let network t = t.net

let n t = Array.length t.procs

let process t i = t.procs.(i)

let processes t = t.procs

let label kind pid =
  { Engine.l_kind = kind; l_pid = pid; l_src = -1; l_info = "" }

let inject_at t ~at ~pid data =
  ignore
    (Engine.schedule_at t.engine ~label:(label "inject" pid) at (fun () ->
         Process.inject t.procs.(pid) data))

let fail_at t ~at ~pid =
  ignore
    (Engine.schedule_at t.engine ~label:(label "crash" pid) at (fun () ->
         Process.fail t.procs.(pid)))

let partition_at t ~at ~groups =
  ignore
    (Engine.schedule_at t.engine ~label:(label "net" (-1)) at (fun () ->
         Network.partition t.net groups))

let heal_at t ~at =
  ignore
    (Engine.schedule_at t.engine ~label:(label "net" (-1)) at (fun () ->
         Network.heal t.net))

let run ?until t = Engine.run ?until t.engine

let total t name =
  Array.fold_left
    (fun acc p -> acc + Metrics.Scope.get (Process.metrics p) name)
    0 t.procs

let counters t =
  Array.to_list (Array.mapi (fun i p -> (i, Process.counters p)) t.procs)

let all_alive t = Array.for_all Process.alive t.procs

let pending_outputs t =
  Array.fold_left (fun acc p -> acc + Process.pending_output_count p) 0 t.procs

let collect_garbage t =
  Array.fold_left
    (fun (cps, entries) p ->
      let c, e = Process.collect_garbage p in
      (cps + c, entries + e))
    (0, 0) t.procs

let settle_outputs ?(rounds = 3) t =
  for _ = 1 to rounds do
    Array.iter
      (fun p ->
        if Process.alive p then begin
          Process.flush_now p;
          Process.share_frontier p
        end)
      t.procs;
    run t
  done
