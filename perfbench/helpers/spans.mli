(** In-memory spans for the traced run: name, start, end, parent and
    request id, kept until the run ends. *)

type span = {
  id : int;
  name : string;
  start : float;   (** seconds *)
  stop : float;
  parent : int;    (** id of the enclosing span, -1 for a root *)
  req : int;       (** request or unit id, -1 if none *)
}

type t

val create : ?enabled:bool -> unit -> t
(** A recorder created with [~enabled:false] runs bodies and records
    nothing — the untraced side of the tracing-overhead measurement. *)

val with_span : t -> ?req:int -> string -> (unit -> 'a) -> 'a
(** Time the body as a child of the innermost open span (single thread). *)

val add :
  t -> ?req:int -> parent:int -> string -> start:float -> stop:float -> int
(** Record a span timed elsewhere (e.g. joined from the daemon's trace)
    under [parent] (-1 for a root); returns its id. Recorded even when the
    recorder is disabled. *)

val spans : t -> span list
(** Closed spans in opening order. *)

val duration : span -> float

val self_time : span list -> span -> float
(** The span's duration minus the part its direct children cover (the
    union of their intervals, clipped to the span). *)

type row = { r_name : string; r_count : int; r_total : float; r_self : float }

val by_name : span list -> row list
(** Count, total and self seconds per span name, sorted by name. *)

val root_total : span list -> float
(** Summed duration of the root spans. *)

val other : span list -> float
(** Summed self time of the structural spans — those whose name has no
    ['.'] (units, cases, requests), as opposed to layer spans named
    [layer.call]: the time no layer span covers. *)

val mean_self : span list -> string -> float option
(** Mean self seconds of the spans with that name. *)

val to_trace : span list -> Trace.span list
(** One Chrome trace event per span, in microseconds from the first start
    (durations rounded, at least 1), with its id, parent, request id and
    exact self time in [args]; write them with {!Trace.to_string}. *)
