(** Sender-based message logging — the Johnson-Zwaenepoel [11] row of the
    paper's Table 1.

    Each message is logged in the {e sender's} volatile memory. The receiver
    assigns a receive sequence number (RSN) on delivery and returns it in an
    acknowledgement; the sender records the RSN and confirms. A process may
    deliver optimistically, but it must not {e send} while any of its own
    deliveries is still unconfirmed — this send-blocking is the protocol's
    failure-free cost, accumulated in [blocked_time_x1000] along with
    recovery stalls.

    Recovery is {e not} asynchronous: the restarting process broadcasts a
    retransmission request and must wait for every peer to respond before it
    can make progress. Peers never roll back. Messages whose sender also
    crashed (volatile send log lost) are unrecoverable and counted in
    [unrecoverable].

    Table 1 expectations reproduced: ordering [None], asynchronous recovery
    [No], rollbacks per failure [1] (only the failed process), timestamps
    [O(1)]. *)

module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Transport = Optimist_core.Transport

type 'm wire

type ('s, 'm) t

type 's checkpoint = { ck_state : 's; ck_rsn : int }
(** Snapshot plus the receive-sequence number it covers. *)

type config = {
  checkpoint_interval : float;
  restart_delay : float;
}

val default_config : config

type ('s, 'm) stable_hooks = {
  checkpoint_recorded : position:int -> 's checkpoint -> unit;
  epoch_recorded : int -> unit;
}
(** Callbacks fired when durable state changes. The send log is
    deliberately {e not} mirrored: keeping it volatile is the protocol's
    defining trade-off. *)

val null_hooks : ('s, 'm) stable_hooks

type ('s, 'm) image = {
  im_checkpoints : ('s checkpoint * int) list;  (** newest first *)
  im_epoch : int;
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
    incarnation: no initial checkpoint is taken and the epoch continues
    from [im_epoch]. *)

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
val recovering : ('s, 'm) t -> bool
val state : ('s, 'm) t -> 's
val inject : ('s, 'm) t -> 'm -> unit
val fail : ('s, 'm) t -> unit
(** Simulated crash: volatile state is wiped and a restart is scheduled
    after [restart_delay]. *)

val recover : ('s, 'm) t -> unit
(** Live-mode recovery for a process built with [?restore]: emit the
    failure record, restore the latest stable checkpoint, and broadcast
    the retransmission request. Raises [Invalid_argument] if the
    checkpoint store is empty. *)

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
