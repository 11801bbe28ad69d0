(** Uncoordinated checkpointing {e without} message logging — the classic
    domino-effect baseline (Randell [21], Russell [22]) that motivates the
    whole message-logging line of work in the paper's introduction.

    Processes checkpoint independently and keep no message log, so a
    rollback can only land {e on a checkpoint}: everything since is simply
    lost. Because a rollback discards states that other processes may
    depend on, each rollback broadcasts its own announcement, which can
    force further rollbacks elsewhere — the cascade ("domino effect") can
    collapse the whole computation back to its initial checkpoints. The
    [rollbacks] counter divided by [failures] is the quantity the paper's
    "minimal rollback" property bounds at 1 for Damani-Garg and that is
    unbounded here.

    Each incarnation (restart or rollback) bumps an epoch number carried on
    every message so stale in-flight traffic from discarded states is
    filtered out. *)

module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Transport = Optimist_core.Transport

type 'm wire

type ('s, 'm) t

type ('s, 'm) checkpoint = { cp_state : 's; cp_vc : Optimist_clock.Vclock.t }

type config = { checkpoint_interval : float; restart_delay : float }

val default_config : config

type aux = {
  ax_epoch : int;
  ax_floor : int array;
  ax_peer_epoch : int array;
}
(** Durable non-checkpoint state: epoch counter, announcement floors and
    newest peer epochs. A restarted process that forgot its floors would
    accept dependencies on states the whole system already forfeited. *)

type ('s, 'm) stable_hooks = {
  checkpoint_recorded : position:int -> ('s, 'm) checkpoint -> unit;
  checkpoints_discarded_after : position:int -> unit;
  aux_recorded : aux -> unit;
}

val null_hooks : ('s, 'm) stable_hooks

type ('s, 'm) image = {
  im_checkpoints : (('s, 'm) checkpoint * int) list;  (** newest first *)
  im_aux : aux;
}
(** Durable state reloaded by a restarted live process. *)

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
(** Runtime-seam constructor. With [?restore] the process resumes a prior
    incarnation: no initial checkpoint is taken and the epoch, floors and
    peer epochs continue from [im_aux]. *)

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

val make_net : Engine.t -> Network.config -> 'm wire Network.t

val id : ('s, 'm) t -> int
val alive : ('s, 'm) t -> bool
val state : ('s, 'm) t -> 's
val inject : ('s, 'm) t -> 'm -> unit
val fail : ('s, 'm) t -> unit
(** Simulated crash: a restart is scheduled after [restart_delay]. *)

val recover : ('s, 'm) t -> unit
(** Live-mode recovery for a process built with [?restore]: emit the
    failure record, land on the newest checkpoint consistent with the
    persisted floors, and broadcast the surviving-timestamp announcement.
    Raises [Invalid_argument] if the checkpoint store is empty. *)

val metrics : ('s, 'm) t -> Optimist_obs.Metrics.Scope.t
(** The per-process metrics scope (labelled with this protocol's
    name); shares counter names with the core engine where the
    concepts coincide. *)

val counters : ('s, 'm) t -> (string * int) list
(** Shared names plus [cascade_rollbacks] (rollbacks triggered by another
    process's rollback announcement rather than directly by a failure) and
    [lost_states] (work discarded without any possibility of replay). *)

val check_rules : string list
(** Trace-sanitizer rule ids (see [optimist.check]) that are meaningful
    for this baseline; its {!Registry} entry takes it as the protocol's
    rule set for [recsim run --check] (and for live traces, where the
    protocol runs live). *)
