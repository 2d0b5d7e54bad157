(** The legacy all-nodes-every-iteration engine, kept verbatim as the
    differential oracle for the event-driven {!Engine}. Semantics and result
    schema are documented on {!Engine.execute}; this implementation is the
    definition the event-driven core must match bit-for-bit (cycles, memory,
    registers, stats snapshots, attribution sums). Reached in production
    only through [Engine.execute ~engine:`Reference] (the controller's
    [engine] option, [mesa_cli run|fuzz --engine reference]); tests may call
    it directly. It books cache ports and NoC slices in its own naive slot
    map rather than {!Contention}, so the differential covers that module
    too. *)

val execute :
  ?max_iterations:int ->
  ?stop_after:int ->
  ?fault:Fault.t ->
  ?watchdog_window:int ->
  ?attribution:Attribution.t ->
  config:Accel_config.t ->
  dfg:Dfg.t ->
  machine:Machine.t ->
  hier:Hierarchy.t ->
  unit ->
  (Engine_core.result, string) Stdlib.result
