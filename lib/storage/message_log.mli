(** Receiver-side message log with the paper's volatile/stable split.

    The paper's failure model (Section 3): a process appends every delivered
    message to a volatile buffer and flushes it to stable storage
    asynchronously. On a crash the volatile suffix is wiped — those
    deliveries are unrecoverable and produce *lost states*. On a rollback
    (no crash) the process first flushes, so nothing is lost.

    Entries are indexed by their delivery sequence number, starting at 0. *)

type 'entry t

val create : unit -> 'entry t

val of_stable : 'entry array -> 'entry t
(** A log rebuilt from stable storage after a real crash: [entries] (in
    position order) form the stable prefix, the volatile buffer starts
    empty. The array is copied. *)

val append : 'entry t -> 'entry -> unit
(** Record one delivered message in the volatile buffer. *)

val flush : 'entry t -> unit
(** Move the whole volatile buffer to stable storage (the paper's
    asynchronous log write, or the forced write before a checkpoint or a
    rollback). *)

val crash : 'entry t -> unit
(** Simulate the failure: the volatile buffer disappears. *)

val stable_length : 'entry t -> int
(** Number of entries that survive a crash. *)

val total_length : 'entry t -> int
(** Stable + volatile entries: the process's current delivery count. *)

val get : 'entry t -> int -> 'entry
(** [get t i] returns the i-th delivered message; raises [Invalid_argument]
    when out of range (including entries discarded by [truncate] or
    [gc_prefix]). *)

val iter_range : 'entry t -> from:int -> until:int -> ('entry -> unit) -> unit
(** Apply to entries [from, until), oldest first, in one pass over the
    range (stable and volatile alike). Raises [Invalid_argument] when a
    non-empty range leaves the readable entries. *)

val truncate : 'entry t -> int -> unit
(** [truncate t k] keeps only the first [k] entries. Used by rollback to
    discard the log suffix past the restored state (paper Figure 4,
    Rollback). Requires the suffix not to be below the GC floor. *)

val gc_prefix : 'entry t -> int -> unit
(** [gc_prefix t k] reclaims entries below index [k] (paper Section 6.5
    remark 2). Reading them afterwards is an error; [stable_length] and
    numbering are unaffected. *)

val gc_floor : 'entry t -> int
(** First index still readable. *)

val counters : 'entry t -> Optimist_util.Stats.Counters.t
(** [appends], [flushes], [flushed_entries], [crashes],
    [lost_entries]. *)
