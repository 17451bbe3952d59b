(** A cluster worker process: connects, greets, and obeys.

    One [Worker.run] serves either role — the first spec message
    decides it:

    - [Campaign_spec]: rebuild the shard plan from the config (pure
      function, so every worker agrees with the coordinator), then for
      each [Lease] batch execute the shards on a [jobs]-domain pool,
      streaming one [Shard_result] back per shard {e as it completes}
      (sends are mutex-serialized across domains) so the coordinator
      can keep the lease topped up.  Consecutive lease messages are
      gathered greedily before spawning the pool, so the batch width
      recovers to [jobs] even though top-ups arrive one at a time.

    - [Serve_spec]: spawn [jobs] executor domains, each serving
      through its own {!Xentry_serve.Server.Step} under [Microboot]
      (a host seeded from the spec's worker index, micro-rebooted on
      every verdict); the socket reader pushes requests onto a
      bounded queue (shedding with a [shed] response when full) until
      [Drain] or EOF, then the executors flush the queue (shedding
      everything once draining) and the worker says goodbye.

    Either way the worker finishes by sending its telemetry dump (when
    telemetry is enabled) and [Bye].  A worker never decides anything
    about shard placement or stream routing — all policy lives in the
    {!Coordinator} and the serve {!Front}. *)

val run : ?jobs:int -> connect:Protocol.addr -> unit -> unit
(** Connect (with retries — the coordinator may not be listening yet),
    announce [jobs] domains (default {!Xentry_util.Pool.default_jobs}),
    and work until the peer says [Bye] or closes the connection. *)

(** {1 Local launcher}

    Coordinators, fronts and their tests run their workers as local
    processes of their own binary, which must answer the given
    arguments by calling {!run}. *)

val with_workers : n:int -> string list -> (int list -> 'a) -> 'a
(** [with_workers ~n args f] starts [n] copies of
    [Sys.executable_name] with [args] (never [fork]: an OCaml 5
    runtime with live domains must not fork) and runs [f pids].  Once
    [f] returns or raises, every worker is SIGKILLed and reaped:
    workers are stateless by then, and killing before waiting keeps a
    straggler that never reached the coordinator from holding the exit
    path through its connect retries. *)

val with_scratch_dir : string -> (string -> 'a) -> 'a
(** [with_scratch_dir name f] runs [f dir] in a fresh private
    directory [xentry-cluster-PID-name] under the temporary directory,
    a home for the coordinator's socket, and removes it with its
    contents afterwards. *)
