(* The shape every recovery protocol module shares, written down once.

   The baselines in this library grew the same surface independently;
   these signatures name it so the registry can hold a protocol as a
   first-class module and the simulator, the model checker and the live
   worker can drive any of them through one generic function. *)

module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Transport = Optimist_core.Transport
module Types = Optimist_core.Types
module Metrics = Optimist_obs.Metrics

(* What a running instance answers, whichever substrate built it. The
   core protocol ([Optimist_core.Process]) has this surface too. *)
module type INSTANCE = sig
  type ('s, 'm) t

  val alive : ('s, 'm) t -> bool
  val state : ('s, 'm) t -> 's
  val inject : ('s, 'm) t -> 'm -> unit
  val fail : ('s, 'm) t -> unit

  val metrics : ('s, 'm) t -> Metrics.Scope.t
  (** Labelled with the protocol's canonical registry name. *)

  val counters : ('s, 'm) t -> (string * int) list
end

(* What the simulator and the model checker need. Peterson-Kearns, which
   has no live runtime, stops here. *)
module type SIM = sig
  include INSTANCE

  type 'm wire
  type config

  val default_config : config
  val make_net : Engine.t -> Network.config -> 'm wire Network.t

  val create :
    engine:Engine.t ->
    net:'m wire Network.t ->
    app:('s, 'm) Types.app ->
    id:int ->
    n:int ->
    ?config:config ->
    ?metrics:Metrics.Scope.t ->
    next_uid:(unit -> int) ->
    unit ->
    ('s, 'm) t

  val check_rules : string list
  (** Trace-sanitizer rule ids (see [optimist.check]) this protocol's
      traces are expected to satisfy. *)
end

(* The full surface: the simulator's, plus what a live worker needs to
   mirror the stable state into a store and rebuild a restarted
   incarnation from it. *)
module type S = sig
  include SIM

  type ('s, 'm) stable_hooks
  type ('s, 'm) image

  val create_rt :
    rt:Transport.runtime ->
    net:'m wire Transport.t ->
    app:('s, 'm) Types.app ->
    id:int ->
    n:int ->
    ?config:config ->
    ?metrics:Metrics.Scope.t ->
    ?stable:('s, 'm) stable_hooks ->
    ?restore:('s, 'm) image ->
    next_uid:(unit -> int) ->
    unit ->
    ('s, 'm) t

  val recover : ('s, 'm) t -> unit
end
