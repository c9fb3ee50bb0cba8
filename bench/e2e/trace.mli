(** Span recording for the traced benchmark run.

    Spans live in arrays allocated once at {!create}, so recording
    allocates nothing; once the capacity is reached further spans are
    counted in {!dropped} and otherwise ignored.  A span has a name (an
    index into the name table given at creation), a start and stop time
    in nanoseconds, the request it served ([-1] for work shared by a
    batch) and the id of its parent span ([-1] for a root).

    Child spans must not overlap one another: the self time of a span is
    its duration minus the durations of its children, which is the part
    of its interval they cover only under that condition.  The
    benchmark's spans are sequential calls, so it holds. *)

type t

val create : names:string array -> capacity:int -> t

val names : t -> string array

val enter : t -> name:int -> req:int -> parent:int -> start:int -> int
(** Open a span whose stop time is set later by {!leave}; returns its
    id, or [-1] when the span was dropped. *)

val leave : t -> int -> stop:int -> unit
(** Close a span opened by {!enter}; a no-op on id [-1]. *)

val span : t -> name:int -> req:int -> parent:int -> start:int -> stop:int -> unit
(** Record a span whose bounds are already known. *)

val length : t -> int

val dropped : t -> int

val self_times : t -> int array
(** Self time of each recorded span, indexed by span id. *)

type layer = {
  calls : int;
  self_ns : int;  (** summed self time *)
  p99_ns : float;  (** nearest-rank 99th percentile of span durations *)
  max_ns : int;  (** longest span duration *)
}

val layers : t -> layer array
(** Per-name totals, indexed like the name table; names without spans
    report zero calls. *)

val write_chrome : t -> limit:int -> out_channel -> unit
(** Write the first [limit] spans as a Chrome trace-event JSON document
    (complete ["X"] events, microsecond timestamps from the earliest
    written start), with request and parent ids under [args]. *)
