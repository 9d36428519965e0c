(* The chaos library with [Runner.run] wrapped in a "workload.shot" span:
   inside the serve engine, one runner call is one consensus shot. *)

include Chaos

module Runner = struct
  include Chaos.Runner

  let run ?monitors ?max_steps ?interleave ?inputs ?on_active ?prefix ~schedule sys =
    Bench_trace.Span.span "workload.shot" (fun () ->
        Chaos.Runner.run ?monitors ?max_steps ?interleave ?inputs ?on_active ?prefix ~schedule
          sys)
end
