(* What every workload shares: the run context, the report it hands back
   to [Main], and the inputs several workloads draw from. *)

type ctx = {
  seed : int;
  budget : Loop.budget;
  tracing : bool;  (** Traced run: per-layer metrics instead of e2e. *)
  tr : Trace.t;
  verdicts : Buffer.t;
      (** One line per checked op; the self-check compares digests. *)
}

type report = {
  loop : Loop.result;
  setup_s : float;  (** Median over repeated set-ups ([Loop.repeat_timed]). *)
  correct : bool;  (** Checks made outside the timed region. *)
  notes : string list;  (** Human-readable lines printed before the result. *)
  layer : (string * float) list;
      (** Per-layer metrics the workload derives itself (shares, counts
          read from stats records). *)
}

let tracer ctx = if ctx.tracing then Some ctx.tr else None

let rng ctx tag = Random.State.make [| tag; ctx.seed |]

let verdict ctx fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.verdicts s;
      Buffer.add_char ctx.verdicts '\n')
    fmt

(* Seeded Fisher-Yates shuffle of a copy of [a]. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* The sample programs, as [(file name, source)] sorted by name. *)
let examples () =
  let dir = "examples/programs" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".hml")
  |> List.sort compare
  |> List.map (fun f ->
         (f, In_channel.with_open_text (Filename.concat dir f) In_channel.input_all))

let source_of program = Minilang.Pretty.program_to_string program

let is_valid program =
  Minilang.Validate.is_valid (Minilang.Validate.check_program program)

(* Does the program use point-to-point messages? *)
let has_p2p (program : Minilang.Ast.program) =
  List.exists
    (fun (f : Minilang.Ast.func) ->
      Minilang.Ast.fold_stmts
        (fun acc s ->
          acc
          ||
          match s.Minilang.Ast.sdesc with
          | Minilang.Ast.Send _ | Minilang.Ast.Recv _ -> true
          | _ -> false)
        false f.Minilang.Ast.body)
    program.Minilang.Ast.funcs

(* Injector mutants of [bases]: for each bug in [bugs] and each base
   with a site for it, [per_base] seeded sites, or every site when
   [per_base] is [None].  Stratifying by base keeps the mix of program
   sizes the same for every seed.  Returns the mutants that validate and
   the number dropped because they did not (an injection can break the
   OpenMP nesting rules). *)
let mutants rng ~bugs ?per_base bases =
  let kept = ref [] and dropped = ref 0 in
  List.iter
    (fun bug ->
      List.iter
        (fun (name, p) ->
          let nsites =
            if Benchsuite.Injector.targets_wait bug then
              Benchsuite.Injector.wait_count p
            else Benchsuite.Injector.collective_count p
          in
          let sites =
            match per_base with
            | None -> List.init nsites Fun.id
            | Some k when nsites > 0 -> List.init k (fun _ -> Random.State.int rng nsites)
            | Some _ -> []
          in
          List.iter
            (fun index ->
              let m = Benchsuite.Injector.inject bug ~index p in
              if is_valid m then
                kept :=
                  ( Printf.sprintf "%s@%s#%d" (Benchsuite.Injector.short_name bug)
                      name index,
                    bug,
                    m )
                  :: !kept
              else incr dropped)
            sites)
        bases)
    bugs;
  (List.rev !kept, !dropped)
