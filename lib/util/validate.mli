(** Validated parsing of numeric command-line values.

    Every [recsim] flag that takes a number goes through one of these
    parsers: nonsense values (0 processes, a negative failure count, a
    probability of 3) must die at argument parsing with a one-line
    message, not as an exception backtrace out of a run. The parsers are
    pure ([Result]-valued) so the CLI conversions wrapping them and the
    table-driven tests exercise exactly the same code. *)

val int_at_least : int -> string -> (int, string) result
(** [int_at_least min s] parses an integer no smaller than [min]. *)

val positive_float : string -> (float, string) result
(** A finite float strictly greater than 0. *)

val non_negative_float : string -> (float, string) result
(** A finite float greater than or equal to 0. *)

val probability : string -> (float, string) result
(** A finite float in [0, 1]. *)

val port : string -> (int, string) result
(** A TCP port number in 1..65535. *)

val host_port : string -> (string * int, string) result
(** A ["HOST:PORT"] endpoint: non-empty host, valid port. The split is
    on the last [':'] so a numeric IPv6 host still parses if given as
    the whole prefix. *)

val fault : string -> (float * int, string) result
(** A ["SECONDS:PID"] crash point: positive finite time, non-negative
    pid. Range checks against the run's [n] and duration happen later,
    in [Optimist_live.Plan.validate]. *)
