(** The routing-as-a-service daemon core.

    A server is a transport wrapped around the engine — the compile
    path is exactly {!Engine.Batch}'s per-job pipeline (sequential
    trials, [Verify_pass] on, distance matrix from
    {!Hardware.Dist_cache}), so a response's routed QASM is
    byte-identical to what [sabre_compile] writes for the same
    (circuit, device, config, router). What the server adds is
    lifecycle: persistent workers, admission control, deadlines,
    counters and a graceful drain.

    {b Threading model.} Connection I/O runs on systhreads of the
    calling domain (one acceptor plus one thread per connection), so a
    slow client never blocks routing; compilation runs on a pool of
    [domains] worker {e domains} that pop jobs from a bounded
    {!Rqueue}. Workers are persistent, and the device-keyed
    {!Hardware.Dist_cache} stays hot process-wide — after the first
    request against a device, its distance matrix is a digest lookup.
    Each request builds its own device, though, and a domain's
    {!Sabre_core.Routing_pass.Scratch} arena is keyed on the device
    instance, so the arena is re-created for every request.

    {b Admission.} A compile or portfolio request is resolved once, on
    its connection thread: the config is validated, the router (or the
    portfolio spec and objective) looked up, the device built and the
    source parsed, and the first of these to fail, in that order, gives
    the request its typed error ([invalid], or [qasm_error] for the
    source) — ahead of any queue answer. A resolved request is answered
    from the compile cache when it can be (see [cache] below), else
    queued as a job that holds the resolved inputs, so a worker only
    routes. A full queue rejects immediately with a [queue_full] error
    (backpressure is a protocol answer, not an internal buffer). A
    stray exception while resolving or routing becomes a [route_error]
    on that one request; neither the connection thread nor the worker
    dies with it.

    {b Deadlines.} Each request carries an absolute deadline counted
    from the moment its line was decoded, so resolution and time
    spent queued count against it. A job whose deadline has passed
    when a worker picks it up times out without routing. In-flight
    interruption is cooperative: the worker hands the engine an
    {!Engine.Race} token whose probe watches the deadline clock and the
    requesting connection (one non-blocking [MSG_PEEK] read, which
    works on any descriptor number; EOF means the client hung up and
    nobody will read the answer), and the routing pass aborts at its
    next progress check via {!Sabre_core.Routing_pass.Cancelled}. The
    abort path unwinds through the same scratch-arena write-back as a
    completed route, so the worker stays unpoisoned and its arena
    reusable. Every reply, whether the resolver, the admission probe or
    a worker made it, then passes one check: a reply finished past its
    deadline is answered [timeout] and its result discarded, error
    replies included. Portfolio requests additionally accept a [race]
    flag that arms incumbent-bound pruning across their entries
    ({!Engine.Portfolio.run}'s [~race]); the winner is unchanged,
    losing entries just stop early and are reported [cancelled].

    {b Shutdown.} {!stop} (or SIGTERM/SIGINT once
    {!install_signal_handlers} ran) closes the listener, lets the
    workers drain every admitted job, answers [shutting_down] to any
    valid request that arrives during the drain, flushes the
    per-connection responses, and only then returns. *)

type t

val start :
  ?domains:int ->
  ?queue_capacity:int ->
  ?cache:bool ->
  ?default_deadline_s:float ->
  ?max_request_bytes:int ->
  ?instrument:Engine.Instrument.t ->
  Protocol.endpoint ->
  t
(** Bind, listen and return once the server accepts connections.
    [domains] (default 1) sizes the worker pool; [queue_capacity]
    (default 64) bounds the admission queue ([0] rejects every valid
    compile — used by admission tests); [default_deadline_s] applies to
    requests that carry none (default: no deadline);
    [max_request_bytes] (default {!Protocol.default_max_bytes}) bounds
    one request line. [instrument] receives server counter events
    (pass ["serve"]) and every compile's pass events — it must be
    domain-safe ({!Instrument.null}, {!Instrument.stderr_trace} or
    {!Instrument.sync_collector}; a plain collector is not).

    [cache] (default [false]) opts the server into the process-wide
    {!Engine.Compile_cache}: a compile request whose result is already
    memoized is answered {e at admission}, on the connection thread,
    without ever occupying a queue slot or a worker (counted in
    [served] and the per-router bucket, but not in any worker's
    [jobs_run]); misses route normally and insert. A hit finished past
    its deadline answers [timeout] like any late reply. A request
    carrying [cache=false] bypasses the cache in both directions, and
    a request whose deadline had already expired when it arrived is
    never answered from the cache — it is queued and times out at
    pickup exactly as without caching. The [sabre_serve] binary
    enables this by default ([--cache-mb 0] turns it off).

    Registers the baseline routers and ignores [SIGPIPE]. Raises
    [Unix.Unix_error] when binding fails (path in use, privileged
    port, ...). A Unix-domain socket path is unlinked first if it is a
    stale socket, and unlinked again on {!stop}. *)

val endpoint : t -> Protocol.endpoint
(** The actual endpoint — for [Tcp] with port 0, the bound port. *)

val stats : t -> Protocol.server_stats
(** Snapshot of the counters the [stats] request returns. *)

val request_stop : t -> unit
(** Flag the server to stop and wake the acceptor. Async-signal-safe
    (an atomic store plus a self-pipe write); does not block. The
    actual drain happens in {!stop}/{!wait}. *)

val stop : t -> unit
(** Graceful drain: stop accepting, refuse new work, finish every
    admitted job, deliver and flush all responses, join every worker
    domain and connection thread, close the listener. Idempotent and
    safe to call from several threads — late callers block until the
    drain completes. *)

val wait : t -> unit
(** Block until a stop has been requested (by {!request_stop}, a
    handled signal, or a concurrent {!stop}), then run {!stop} to
    completion. The daemon binary's main thread lives here. *)

val install_signal_handlers : t -> unit
(** Route SIGTERM and SIGINT to {!request_stop} — together with
    {!wait} this gives the drain-then-exit-0 behaviour the CI smoke
    test exercises. *)
