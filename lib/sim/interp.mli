(** The "instruction-set simulator" of Step 2 of Algorithm 1.

    Interprets a MiniC program over a simulated 32-bit address space and
    pushes one {!Foray_trace.Event.event} into the given sink for every
    memory access and every executed checkpoint — the same record stream the
    paper obtains from a modified SimpleScalar. Because consumers are sinks,
    the FORAY-GEN analysis can run online during simulation with no stored
    trace (constant space, §4 of the paper).

    Machine model:
    - [int] and pointers are 4 bytes, [char] is 1 byte, little-endian;
    - every named variable lives in memory (globals segment or stack frame),
      as in unoptimized embedded compilation; reads/writes of named scalars
      emit events unless [trace_scalars] is off;
    - array-element and pointer-dereference traffic is always traced;
    - pointer arithmetic is scaled by the element size, as in C;
    - function parameters are stored to the callee frame on call (the
      paper's "placing arguments to the stack"), with events;
    - [memset]/[memcpy] builtin traffic is tagged [sys], modelling system
      libraries (Table III's middle category). *)

exception Runtime_error of string

(** What {!run} actually raises on dynamic errors: the message plus the
    statement count at failure, so the pipeline's typed taxonomy can
    report where the simulation died. ({!Runtime_error} is still the
    internal raise form and what third-party builtins may throw.) *)
exception Runtime_error_at of { msg : string; step : int }

type value = Vint of int | Vptr of { addr : int; elem : Minic.Ast.ty }

type config = {
  trace_scalars : bool;  (** emit events for named scalar accesses *)
  max_steps : int;
      (** statement budget; exhausting it stops the run cleanly with
          [Stopped] (it is NOT an error: the events already emitted are a
          valid trace prefix and the analyzers finish on them) *)
  deadline_ms : int option;
      (** wall-clock budget for one [run], checked once at admission
          (before any statement executes, so an already-expired deadline
          stops at step 0) and then every few thousand steps;
          [None] = unlimited *)
  max_trace_events : int option;
      (** budget on events pushed into the sink (accesses + checkpoints);
          [None] = unlimited *)
  rand_seed : int;  (** seed of the [mc_rand] builtin *)
  resolve : bool;
      (** pre-resolve identifiers to frame slots ({!Minic.Resolve}) and
          index flat [int array] frames instead of walking hashtable scope
          chains. Default [true]; [false] keeps the original string-lookup
          path (the observable behaviour — results and event streams — is
          identical, only speed differs). *)
}

val default_config : config

(** Which budget stopped the run, how much was allowed and how much was
    spent when it tripped (for [deadline_ms] both are milliseconds). *)
type budget_stop = { budget : string; limit : int; spent : int }

type stop = Completed | Stopped of budget_stop

type result = {
  ret : int;  (** [main]'s return value (0 when it returns void) *)
  output : int list;  (** values passed to [print_int], in order *)
  steps : int;  (** statements executed *)
  accesses : int;  (** memory-access events emitted *)
  stopped : stop;
      (** [Completed], or the budget that cleanly cut the run short *)
}

(** [run ?config prog ~sink] executes [main]. The program should have passed
    {!Minic.Sema.check}. Exhausting a budget is a clean stop, not an error.
    @raise Runtime_error_at on dynamic errors (division by zero, unknown
    function, bad pointer operations). *)
val run : ?config:config -> Minic.Ast.program -> sink:Foray_trace.Event.sink -> result

(** {1 Synthetic site ids}

    Real reference sites are expression node ids. Traffic not tied to a
    source expression gets reserved ids well above any node id: *)

val site_memset : int
val site_memcpy_rd : int
val site_memcpy_wr : int

(** Site used for the implicit stores of a declaration's initializer list;
    derived from the statement id. *)
val site_ilist : int -> int
