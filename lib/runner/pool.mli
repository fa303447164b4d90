(** A fixed-size worker pool on OCaml 5 [Domain]s with a shared FIFO work
    queue.

    The pool is task-agnostic (it runs [unit -> unit] thunks); {!Runner}
    layers job semantics — seeding, retry, timeout, result collection — on
    top. Tasks must not raise: a task that does is swallowed (the worker
    survives) but the escape is counted in {!escaped_exceptions} so bugs in
    the wrapping layer can't hide. Submitting from inside a task is
    permitted (the queue is unbounded), but waiting from inside a task for
    another task's completion can deadlock a 1-worker pool. *)

type t

(** [create ~workers ()] spawns [workers] domains (>= 1). Keep one pool
    per process near [Domain.recommended_domain_count]; domains are not
    cheap threads. *)
val create : workers:int -> unit -> t

val workers : t -> int

(** [submit t task] enqueues [task]. Raises [Invalid_argument] after
    {!shutdown}. *)
val submit : t -> (unit -> unit) -> unit

(** [shutdown t] stops accepting work, drains the queue, and joins all
    worker domains. Idempotent. *)
val shutdown : t -> unit

(** Tasks whose exceptions reached the worker loop (always 0 when driven
    by {!Runner}, which catches per-attempt). *)
val escaped_exceptions : t -> int

(** [with_pool ~workers f] runs [f pool] and guarantees shutdown. *)
val with_pool : workers:int -> (t -> 'a) -> 'a
