(** Reading the daemon's [trace] stream and joining it by request id. *)

type line = Span of Telemetry.span | End | Other

val parse_line : string -> (line, string) result
(** Decode one response line of a trace subscription: a lifecycle span,
    the end-of-stream marker, or some other response. *)

(** Server-side timestamps (daemon clock, ms) of one request's phases. *)
type phases = {
  admit : float option;
  queue : float option;
  execute : float option;
  resolve : float option;
  outcome : string;    (** taxonomy outcome from the resolve span *)
}

val join : Telemetry.span list -> (int * phases) list
(** Group request-scoped spans by request id (sorted by id). A retried
    request keeps its first admit/queue and its last execute/resolve. *)

val queue_wait_ms : phases -> float option
(** admit → queue, when both were seen. *)

val exec_ms : phases -> float option
(** queue → execute. *)

val server_ms : phases -> float option
(** admit → resolve. *)
