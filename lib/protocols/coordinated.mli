(** Coordinated (consistent) checkpointing, Koo-Toueg style [13] — the
    approach the paper's introduction argues against: "different processes
    synchronize their checkpointing actions … For large systems, the cost
    of this synchronization is prohibitive. Furthermore, these protocols
    may not restore the maximum recoverable state."

    An initiator runs a two-phase round: request → every process takes a
    tentative checkpoint and {e blocks} (no sends, deliveries buffered so no
    message crosses the line) → ready from all → commit. On any failure the
    whole system rolls back to the last committed line: everything since is
    lost (no message logging), and every process rolls back for every
    failure.

    Measured costs reproduced: [blocked_time_x1000] grows with both the
    round frequency and n (the slowest straggler gates the commit);
    [control_messages] = 3(n−1) per round; [lost_states] counts the work a
    failure forfeits; [rollbacks] = n−1 peers per failure. *)

module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Transport = Optimist_core.Transport

type 'm wire

type ('s, 'm) t

type ('s, 'm) snapshot = { sn_state : 's; sn_round : int }
(** A committed (or tentative) line entry: the state plus the two-phase
    round that produced it. *)

type config = { checkpoint_interval : float; restart_delay : float }

val default_config : config

type aux = { ax_epoch : int; ax_peer_epoch : int array; ax_round : int }
(** Durable counters beside the committed snapshot: the system-wide
    rollback epoch, the newest epoch seen per peer, and the last
    checkpoint round. *)

type ('s, 'm) stable_hooks = {
  snapshot_committed : ('s, 'm) snapshot -> unit;
  aux_recorded : aux -> unit;
}

val null_hooks : ('s, 'm) stable_hooks

type ('s, 'm) image = { im_committed : ('s, 'm) snapshot; im_aux : aux }
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
    incarnation: the committed line, epoch and round counters continue
    from the image, and the initiator's round loop resumes past
    [ax_round]. *)

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
    failure record, restore the committed line and broadcast the rollback
    token that drags every peer back to it. *)

val metrics : ('s, 'm) t -> Optimist_obs.Metrics.Scope.t
(** The per-process metrics scope (labelled with this protocol's
    name); shares counter names with the core engine where the
    concepts coincide. *)

val counters : ('s, 'm) t -> (string * int) list

val check_rules : string list
(** Trace-sanitizer rule ids (see [optimist.check]) that are meaningful
    for this baseline; its {!Registry} entry takes it as the protocol's
    rule set for [recsim run --check] (and for live traces, where the
    protocol runs live). *)
