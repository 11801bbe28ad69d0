(** Pessimistic receiver-based message logging — the [3, 20] row of the
    paper's Table 1 (Borg-Baumbach-Glazer; Powell-Presotto).

    Every delivered message is written to stable storage {e synchronously}
    before the application processes it, so a crash never loses a delivered
    message: recovery is purely local (restore last checkpoint, replay the
    log) and no other process ever rolls back. The price is paid on every
    delivery during failure-free operation — modelled here as a stable-write
    latency that delays processing and is accumulated in the
    [blocked_time] counter. No clock is piggybacked (an O(1) header).

    Table 1 expectations this implementation reproduces: message ordering
    [None], asynchronous recovery (trivially — nobody is asked anything),
    rollbacks per failure [0] for peers, timestamps [O(1)], concurrent
    failures [n]. *)

module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Transport = Optimist_core.Transport

type 'm wire

type 'm entry
(** One logged delivery (payload + sender); opaque outside the live
    runtime's stable store. *)

type ('s, 'm) t

type config = {
  sync_write_latency : float;
      (** stable-storage latency charged to every delivery *)
  checkpoint_interval : float;
  restart_delay : float;
  ack_before_fsync : bool;
      (** deliberately broken variant for [recsim mc --mutate]: run the
          handler before the log entry is stable (OPT013 catches it) *)
}

val default_config : config

type ('s, 'm) stable_hooks = {
  log_appended : 'm entry list -> unit;
  checkpoint_recorded : position:int -> 's -> unit;
  epoch_recorded : int -> unit;
}
(** Mirrors of the stable state for an external store (the live
    runtime); the epoch is persisted so a rebuilt worker resumes
    counting incarnations where the dead one stopped. *)

val null_hooks : ('s, 'm) stable_hooks

type ('s, 'm) image = {
  im_log : 'm entry array;
  im_checkpoints : ('s * int) list;  (** newest first *)
  im_epoch : int;
}

val create :
  engine:Engine.t ->
  net:'m wire Network.t ->
  app:('s, 'm) Optimist_core.Types.app ->
  id:int ->
  n:int ->
  ?config:config ->
  ?metrics:Optimist_obs.Metrics.Scope.t ->
  next_uid:(unit -> int) ->
  unit ->
  ('s, 'm) t

val create_rt :
  rt:Transport.runtime ->
  net:'m wire Transport.t ->
  app:('s, 'm) Optimist_core.Types.app ->
  id:int ->
  n:int ->
  ?config:config ->
  ?metrics:Optimist_obs.Metrics.Scope.t ->
  ?stable:('s, 'm) stable_hooks ->
  ?restore:('s, 'm) image ->
  next_uid:(unit -> int) ->
  unit ->
  ('s, 'm) t
(** Substrate-agnostic constructor behind {!create}; see
    {!Optimist_core.Process.create_rt} for the conventions. *)

val recover : ('s, 'm) t -> unit
(** Live-mode crash recovery for a process built with [?restore]: emits
    the failure record, restores the latest checkpoint, replays the
    stable log, advances the epoch and re-checkpoints. Raises
    [Invalid_argument] if the checkpoint store is empty. *)

val make_net : Engine.t -> Network.config -> 'm wire Network.t

val id : ('s, 'm) t -> int
val alive : ('s, 'm) t -> bool
val state : ('s, 'm) t -> 's
val inject : ('s, 'm) t -> 'm -> unit
val fail : ('s, 'm) t -> unit
val metrics : ('s, 'm) t -> Optimist_obs.Metrics.Scope.t
(** The per-process metrics scope (labelled with this protocol's
    name); shares counter names with the core engine where the
    concepts coincide. *)

val counters : ('s, 'm) t -> (string * int) list
(** [delivered], [sent], [restarts], [replayed], [piggyback_words],
    [blocked_time_x1000] (accumulated synchronous-write delay), plus the
    shared counter names used by the comparison table. *)

val check_rules : string list
(** Trace-sanitizer rule ids (see [optimist.check]) that are meaningful
    for this baseline; its {!Registry} entry takes it as the protocol's
    rule set for [recsim run --check] (and for live traces, where the
    protocol runs live). *)
