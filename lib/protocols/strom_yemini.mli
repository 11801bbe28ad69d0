(** Strom-Yemini-style optimistic recovery — the [27] row of the paper's
    Table 1.

    Like Damani-Garg this logs messages asynchronously at the receiver,
    piggybacks an O(n) dependency vector with incarnation numbers, and
    broadcasts a recovery announcement on failure. The differences captured
    here are exactly what the paper criticises:

    - {b No history mechanism}: a process only knows the single
      (incarnation, timestamp) entry per peer in its current dependency
      vector. When an entry is overwritten by a later incarnation before
      the announcement that ended the earlier one arrives (possible even on
      FIFO channels, through a third process), the dependency information
      on the dead incarnation is {e lost}. On receiving the late
      announcement the process must {e conservatively roll back past the
      blind incarnation jump} — rollbacks Damani-Garg provably avoids
      (the paper's "minimal rollback" property). The [conservative_rollbacks]
      counter and the oracle's needless-rollback statistic measure this.
    - {b No deliverability rule}: messages referencing unknown incarnations
      are accepted optimistically, which is what creates the blind jumps.
    - {b FIFO assumed}: the original protocol requires FIFO channels;
      running this implementation on a reordering network exercises that
      assumption.

    The announcement table (this implementation keeps received
    announcements stably, like D-G tokens) still allows exact obsolete-
    message discarding, so runs remain consistent — just with more and
    deeper rollbacks than Damani-Garg on the same schedule. *)

module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Transport = Optimist_core.Transport
module Ftvc = Optimist_clock.Ftvc

type announcement = { a_origin : int; a_inc : int; a_ts : int }
(** A recovery announcement: states of incarnation [a_inc] of [a_origin]
    past timestamp [a_ts] are dead. *)

type 'm wire

type 'm entry_log =
  | E_msg of { data : 'm; clock : Ftvc.entry array; sender : int }
  | E_mark of Ftvc.entry
(** One receiver-log record: a delivered message with its piggybacked
    dependency vector, or an own-entry bump written by a rollback. *)

type ('s, 'm) t

type ('s, 'm) checkpoint = { cp_state : 's; cp_clock : Ftvc.t }

type config = {
  checkpoint_interval : float;
  flush_interval : float;
  restart_delay : float;
}

val default_config : config

type ('s, 'm) stable_hooks = {
  log_flushed : 'm entry_log list -> unit;
      (** newly stable entries, oldest first *)
  log_truncated : int -> unit;  (** new total length after a rollback *)
  checkpoint_recorded : position:int -> ('s, 'm) checkpoint -> unit;
  checkpoints_discarded_after : position:int -> unit;
  announcement_recorded : announcement -> unit;
}
(** Callbacks fired when durable state changes: the flushed log prefix,
    the checkpoints, and the announcement table. *)

val null_hooks : ('s, 'm) stable_hooks

type ('s, 'm) image = {
  im_log : 'm entry_log array;  (** stable prefix, position order *)
  im_checkpoints : (('s, 'm) checkpoint * int) list;  (** newest first *)
  im_announcements : announcement list;
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
    incarnation from the stable log, checkpoints and announcement table;
    no initial checkpoint is taken. *)

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
val incarnation : ('s, 'm) t -> int
val inject : ('s, 'm) t -> 'm -> unit
val fail : ('s, 'm) t -> unit
(** Simulated crash: the volatile log suffix is lost and a restart is
    scheduled after [restart_delay]. *)

val recover : ('s, 'm) t -> unit
(** Live-mode recovery for a process built with [?restore]: restore from
    the stable log (so the failure record carries the incarnation the
    crash killed), then announce and step to the next incarnation.
    Raises [Invalid_argument] if the checkpoint store is empty. *)

val metrics : ('s, 'm) t -> Optimist_obs.Metrics.Scope.t
(** The per-process metrics scope (labelled with this protocol's
    name); shares counter names with the core engine where the
    concepts coincide. *)

val counters : ('s, 'm) t -> (string * int) list
(** Shared names plus [conservative_rollbacks]. *)

val check_rules : string list
(** Trace-sanitizer rule ids (see [optimist.check]) that are meaningful
    for this baseline; its {!Registry} entry takes it as the protocol's
    rule set for [recsim run --check] (and for live traces, where the
    protocol runs live). *)
