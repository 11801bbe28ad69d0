(** Cluster coordinator: drives N agents through one multi-host live
    run over the TCP mesh and merges the result.

    The worker ids are split into contiguous per-agent blocks; each
    agent receives the full endpoint table and SIGKILL schedule, runs
    the ordinary supervision loop over its block against a shared time
    origin, and streams its artifacts back. The coordinator then runs
    the single-host {!Optimist_live.Merge} + report pipeline over the
    collected traces, so a cluster run's output directory is
    indistinguishable from a single-host run's. *)

module Plan = Optimist_live.Plan
module Supervisor = Optimist_live.Supervisor
module Scenario = Optimist_soak.Scenario
module Soak = Optimist_soak.Soak

type cfg = {
  plan : Plan.t;  (** the run, shipped unchanged to every agent *)
  out : string;  (** coordinator-side output directory *)
  lead : float;  (** seconds between Start and the shared base *)
  worker_base : int;  (** worker pid [i] listens on [worker_base + i] *)
}

val default_cfg : cfg
(** {!Plan.default} into ["cluster-run"], 0.5 s lead, worker ports from
    7900. *)

val blocks : n:int -> k:int -> int list list
(** Contiguous pid blocks: agent [j] of [k] hosts [n/k] (plus one for
    the first [n mod k] agents) consecutive pids. *)

val run :
  ?log:(string -> unit) ->
  cfg ->
  peers:(string * int) list ->
  (Supervisor.result, string) result
(** Run one cluster run against already-listening agents at
    [peers = (host, control port) list]: {!Plan.validate} before any
    agent is contacted, then ship the plan, start, fetch, and write the
    output directory with {!Supervisor.finish} — the single-host
    [run.json] keys, preceded by [transport], [run], [agents] and
    [peers]. Blocks for the whole run. *)

val run_forked :
  ?log:(string -> unit) ->
  ?port_base:int ->
  agents:int ->
  cfg ->
  (Supervisor.result, string) result
(** Localhost multi-process mode: validate the plan, fork [agents]
    in-process agents (control ports [port_base + j], scratch dirs
    [out/agentJ]), run against them, reap them. *)

val scenario_runner :
  ?agents:int ->
  ?port_base:int ->
  ?worker_base:int ->
  unit ->
  dir:string ->
  Scenario.t ->
  (Soak.run_result, string) result
(** A {!Soak.run_campaign} [?runner] that executes each scenario as a
    forked-localhost TCP cluster ([min agents sc_n] agents) and judges
    it with the shared soak assessor. *)
