(** A simulated cluster: engine + network + one {!Process} per endpoint.

    Convenience layer used by the examples, tests and benches: builds the
    pieces, exposes failure/partition/stimulus scheduling in virtual time,
    and aggregates counters at the end of a run. *)

module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network

type ('s, 'm) t

val create :
  ?seed:int64 ->
  ?net_config:Network.config ->
  ?config:Types.config ->
  ?tracer:Types.tracer ->
  ?trace:Optimist_obs.Trace.t ->
  ?registry:Optimist_obs.Metrics.registry ->
  ?protocol:string ->
  ?on_output:(pid:int -> seq:int -> 'm -> unit) ->
  n:int ->
  app:('s, 'm) Types.app ->
  unit ->
  ('s, 'm) t
(** [net_config] defaults to {!Network.default_config} for [n] endpoints
    (reordering network — the protocol needs no ordering). [on_output]
    receives released application outputs; see {!Process.create}.

    [trace] installs a structured-trace recorder on the engine before any
    component is built, so network and process instrumentation pick it up.
    [registry] makes every process register its metrics scope (labelled
    [(protocol, pid)], [protocol] defaulting to ["damani-garg"]) there
    for cross-process aggregation. *)

val engine : ('s, 'm) t -> Engine.t

val network : ('s, 'm) t -> 'm Types.wire Network.t

val n : ('s, 'm) t -> int

val process : ('s, 'm) t -> int -> ('s, 'm) Process.t

val processes : ('s, 'm) t -> ('s, 'm) Process.t array

(** {2 Scheduling in virtual time} *)

val inject_at : ('s, 'm) t -> at:Engine.time -> pid:int -> 'm -> unit
(** Environment stimulus for [pid] at virtual time [at]. *)

val fail_at : ('s, 'm) t -> at:Engine.time -> pid:int -> unit

val partition_at :
  ('s, 'm) t -> at:Engine.time -> groups:int list list -> unit

val heal_at : ('s, 'm) t -> at:Engine.time -> unit

val run : ?until:Engine.time -> ('s, 'm) t -> unit
(** Drain the event queue (bounded by [until] if given). With a finite
    workload the system reaches quiescence: no events left. *)

(** {2 Aggregation} *)

val total : ('s, 'm) t -> string -> int
(** Sum of a named counter over all processes. *)

val counters : ('s, 'm) t -> (int * (string * int) list) list
(** Per-process counter dumps, for reports. *)

val all_alive : ('s, 'm) t -> bool

val pending_outputs : ('s, 'm) t -> int
(** Outputs still buffered by the commit rule, across all processes. *)

val collect_garbage : ('s, 'm) t -> int * int
(** Run {!Process.collect_garbage} on every process; sums the reclaimed
    (checkpoints, log entries). *)

val settle_outputs : ?rounds:int -> ('s, 'm) t -> unit
(** Flush every process and gossip logged frontiers for [rounds] rounds
    (default 3), running the engine to quiescence in between — drains
    committable outputs once the application has gone quiet. *)
