(** Static verification of the nonblocking request lifecycle
    (split-phase operations, PR "Nonblocking MPI").

    A forward may-dataflow over the CFG tracks, for every request
    variable, the set of start sites that may still be in flight and the
    set of completion sites that may already have completed it
    ([started → completed → dead]).  Facts join by union, so every
    reported situation is witnessed by at least one static path:

    - {e request leak} — a start site still in flight at function exit
      (the request was started but never waited on some path);
    - {e double wait} — an [MPI_Wait]/[MPI_Test] reachable with the
      request already completed on some path;
    - {e use before completion} — an access to the buffer of an
      in-flight [MPI_Irecv]/[MPI_Iallreduce] (the value only
      materialises at completion);
    - {e completion mismatch} — the paper's pword/PDF+ check transposed
      to split-phase collectives: what must be control-flow-uniform
      across ranks is the {e completion} point of an
      [MPI_Ibarrier]/[MPI_Iallreduce] request, not its start (the start
      merely posts; the rendezvous happens where ranks wait).

    The dynamic oracle is the runtime lifecycle checker of {!Interp.Sim}
    ([Sim.lifecycle]): the differential test suite checks that every
    violation it observes is covered by a warning from this pass
    ([dynamic ⊆ static], like {!Races} vs {!Interp.Raceck}). *)

open Minilang

module SSet = Set.Make (String)
module SMap = Map.Make (String)

module LocSet = Set.Make (struct
  type t = Loc.t

  let compare = Loc.compare
end)

(* ------------------------------------------------------------------ *)
(* Facts                                                               *)
(* ------------------------------------------------------------------ *)

(** Per-request may-state: start sites possibly still in flight, and
    completion sites that possibly already completed the request. *)
type state = { started : LocSet.t; completed : LocSet.t }

type fact = state SMap.t

let state_empty = { started = LocSet.empty; completed = LocSet.empty }

let state_equal a b =
  LocSet.equal a.started b.started && LocSet.equal a.completed b.completed

let state_join a b =
  {
    started = LocSet.union a.started b.started;
    completed = LocSet.union a.completed b.completed;
  }

let fact_equal = SMap.equal state_equal

let fact_join = SMap.union (fun _ a b -> Some (state_join a b))

let lookup r fact = Option.value ~default:state_empty (SMap.find_opt r fact)

(* Per-statement transfer.  [Istart] strongly updates (the binding now
   holds a fresh request); [Wait] completes; [Test] may or may not
   complete, so the started sites survive alongside the new completion
   site. *)
let step_stmt (fact : fact) (s : Ast.stmt) =
  match s.Ast.sdesc with
  | Ast.Istart { req; _ } ->
      SMap.add req
        { started = LocSet.singleton s.Ast.sloc; completed = LocSet.empty }
        fact
  | Ast.Wait { req } ->
      SMap.add req
        { started = LocSet.empty; completed = LocSet.singleton s.Ast.sloc }
        fact
  | Ast.Test { req; _ } ->
      let st = lookup req fact in
      SMap.add req
        { st with completed = LocSet.add s.Ast.sloc st.completed }
        fact
  | _ -> fact

let transfer g id fact =
  match Cfg.Graph.kind g id with
  | Cfg.Graph.Simple stmts -> List.fold_left step_stmt fact stmts
  | _ -> fact

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)
(* ------------------------------------------------------------------ *)

type finding =
  | Leak of { req : string; rop : string; started : Loc.t list }
  | Double of { req : string; loc : Loc.t; prior : Loc.t list }
  | Stale of {
      req : string;
      var : string;
      write : bool;
      loc : Loc.t;
      started : Loc.t list;
    }
  | Nonuniform of {
      req : string;
      coll : string;
      sites : Loc.t list;
      conds : Loc.t list;
    }

type result = {
  nrequests : int;  (** Distinct request variables in the function. *)
  nstarts : int;  (** [Istart] statements. *)
  findings : finding list;
  inflight : SSet.t array;
      (** Per-node {e input} fact projected to the request names that may
          be in flight — the happens-before interface consumed by
          {!Races} (a completed wait orders the completion write before
          every later buffer access; an in-flight request orders
          nothing). *)
  buffers : (string * string) list;
      (** [(request, buffer)] pairs of the buffer-receiving starts. *)
}

let locs set = LocSet.elements set

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

(* Variables an expression list reads, for the stale-buffer screen. *)
let read_vars es =
  List.fold_left Cfg.Dataflow.expr_vars Cfg.Dataflow.StringSet.empty es
  |> fun s -> Cfg.Dataflow.StringSet.fold SSet.add s SSet.empty

(* Buffer accesses a statement performs ({!Ast.stmt_uses}), as (var,
   is_write), the write first — the [Istart] itself is exempt (its
   argument reads happen before the post). *)
let stmt_accesses (s : Ast.stmt) =
  match s.Ast.sdesc with
  | Ast.Istart _ -> []
  | _ ->
      let reads, target = Ast.stmt_uses s in
      let reads =
        SSet.elements (read_vars reads) |> List.map (fun x -> (x, false))
      in
      match target with Some x -> (x, true) :: reads | None -> reads

(* Accesses of non-[Simple] nodes (conditions, collective arguments,
   call arguments): reads only, against the node's input fact. *)
let node_read_accesses g id =
  List.map
    (fun x -> (x, false))
    (Cfg.Dataflow.StringSet.elements (Cfg.Dataflow.node_used_vars g id))

(* The forward solve and the post-fixpoint checks, for a function with
   at least one start or completion. *)
let solve actx ~taint_filter ~nstarts ~req_names ~buffers ~rops : result =
  let g = Cfg.Actx.graph actx in
  (* Forward may-analysis to fixpoint. *)
  let input, _output =
    Cfg.Dataflow.solve ~order:(Cfg.Actx.rpo actx) g Cfg.Dataflow.Forward
      ~equal:fact_equal ~join:fact_join ~transfer:(transfer g)
      ~init:SMap.empty ~bottom:SMap.empty
  in
  let inflight =
    Array.map
      (fun fact ->
        SMap.fold
          (fun r st acc ->
            if LocSet.is_empty st.started then acc else SSet.add r acc)
          fact SSet.empty)
      input
  in
  let findings = ref [] in
  let seen = Hashtbl.create 16 in
  let emit key f =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      findings := f :: !findings
    end
  in
  (* Stale-buffer screen: an access to the buffer of a may-in-flight
     request.  The [started] set pins the offending starts. *)
  let screen_access fact loc (x, write) =
    List.iter
      (fun (r, b) ->
        if String.equal b x then
          let st = lookup r fact in
          if not (LocSet.is_empty st.started) then
            emit
              ("stale", r, Loc.to_string loc, x)
              (Stale { req = r; var = x; write; loc; started = locs st.started }))
      buffers
  in
  (* One post-fixpoint walk per node: double waits, stale accesses. *)
  Cfg.Graph.iter_nodes g (fun n ->
      let id = n.Cfg.Graph.id in
      match n.Cfg.Graph.kind with
      | Cfg.Graph.Simple stmts ->
          ignore
            (List.fold_left
               (fun fact (s : Ast.stmt) ->
                 (match s.Ast.sdesc with
                 | Ast.Wait { req } | Ast.Test { req; _ } ->
                     let st = lookup req fact in
                     if not (LocSet.is_empty st.completed) then
                       emit
                         ("double", req, Loc.to_string s.Ast.sloc, "")
                         (Double
                            {
                              req;
                              loc = s.Ast.sloc;
                              prior = locs st.completed;
                            })
                 | _ -> ());
                 List.iter (screen_access fact s.Ast.sloc) (stmt_accesses s);
                 step_stmt fact s)
               input.(id) stmts)
      | Cfg.Graph.Entry | Cfg.Graph.Exit | Cfg.Graph.Return_site _
      | Cfg.Graph.Barrier_node _ | Cfg.Graph.Check_site _ | Cfg.Graph.Omp_end _
        ->
          ()
      | _ ->
          List.iter
            (screen_access input.(id) (Cfg.Graph.node_loc g id))
            (node_read_accesses g id));
  (* Leaks: may-in-flight at function exit. *)
  SMap.iter
    (fun r st ->
      if not (LocSet.is_empty st.started) then
        let rop = Option.value ~default:"MPI_Istart" (Hashtbl.find_opt rops r) in
        emit ("leak", r, "", "") (Leak { req = r; rop; started = locs st.started }))
    input.(g.Cfg.Graph.exit);
  (* Completion placement: the PDF+ of the completion sites of a
     collective request must contain no (rank-dependent) conditional —
     the split-phase transposition of phase 3, anchored at the wait. *)
  let rank_dependent id =
    (not taint_filter) || Cfg.Actx.rank_dependent actx id
  in
  SSet.iter
    (fun r ->
      let is_collective =
        Cfg.Graph.fold_nodes g
          (fun acc n ->
            acc
            ||
            match n.Cfg.Graph.kind with
            | Cfg.Graph.Simple stmts ->
                List.exists
                  (fun (s : Ast.stmt) ->
                    match s.Ast.sdesc with
                    | Ast.Istart { req; rop } ->
                        String.equal req r
                        && Ast.request_collective rop <> None
                    | _ -> false)
                  stmts
            | _ -> false)
          false
      in
      if is_collective then begin
        let compl_nodes =
          Cfg.Graph.fold_nodes g
            (fun acc n ->
              match n.Cfg.Graph.kind with
              | Cfg.Graph.Simple stmts
                when List.exists
                       (fun (s : Ast.stmt) ->
                         match s.Ast.sdesc with
                         | Ast.Wait { req } | Ast.Test { req; _ } ->
                             String.equal req r
                         | _ -> false)
                       stmts ->
                  n.Cfg.Graph.id :: acc
              | _ -> acc)
            []
          |> List.rev
        in
        if compl_nodes <> [] then begin
          let pdf = Cfg.Actx.pdf_plus actx compl_nodes in
          let conds =
            List.filter
              (fun id ->
                (match Cfg.Graph.kind g id with
                | Cfg.Graph.Cond _ -> true
                | _ -> false)
                && rank_dependent id)
              pdf
          in
          if conds <> [] then
            let coll =
              Option.value ~default:"MPI_Ibarrier" (Hashtbl.find_opt rops r)
            in
            emit ("nonuniform", r, "", "")
              (Nonuniform
                 {
                   req = r;
                   coll;
                   sites = List.map (Cfg.Graph.node_loc g) compl_nodes;
                   conds = List.map (Cfg.Graph.node_loc g) conds;
                 })
        end
      end)
    req_names;
  {
    nrequests = SSet.cardinal req_names;
    nstarts;
    findings = List.rev !findings;
    inflight;
    buffers;
  }

let analyze actx ~taint_filter : result =
  let g = Cfg.Actx.graph actx in
  (* Syntactic inventory: request names, buffers, collective starts and
     completion sites. *)
  let nstarts = ref 0 in
  let ncompletions = ref 0 in
  let req_names = ref SSet.empty in
  let buffers = ref [] in
  let rops = Hashtbl.create 8 in
  (* request -> representative [request_op_name] *)
  Cfg.Graph.iter_nodes g (fun n ->
      match n.Cfg.Graph.kind with
      | Cfg.Graph.Simple stmts ->
          List.iter
            (fun (s : Ast.stmt) ->
              match s.Ast.sdesc with
              | Ast.Istart { req; rop } ->
                  incr nstarts;
                  req_names := SSet.add req !req_names;
                  if not (Hashtbl.mem rops req) then
                    Hashtbl.add rops req (Ast.request_op_name rop);
                  (match Ast.request_buffer rop with
                  | Some b ->
                      if not (List.mem (req, b) !buffers) then
                        buffers := (req, b) :: !buffers
                  | None -> ())
              | Ast.Wait _ | Ast.Test _ -> incr ncompletions
              | _ -> ())
            stmts
      | _ -> ());
  let buffers = List.rev !buffers in
  (* Facts only change at starts and completions: without either, every
     node's fact is empty and so is every finding. *)
  if !nstarts = 0 && !ncompletions = 0 then
    {
      nrequests = 0;
      nstarts = 0;
      findings = [];
      inflight = Array.make (Cfg.Graph.nb_nodes g) SSet.empty;
      buffers = [];
    }
  else
    solve actx ~taint_filter ~nstarts:!nstarts ~req_names:!req_names ~buffers
      ~rops

(** [completion_ordered r ~node ~var] tells whether every request whose
    buffer is [var] is definitely completed at [node]'s input — the
    happens-before refinement {!Races} consults: the completion write of
    a waited request cannot race with accesses after the wait (the wait
    is an ordering edge for {e that} buffer only, not a barrier). *)
let completion_ordered r ~node ~var =
  List.for_all
    (fun (req, b) ->
      (not (String.equal b var)) || not (SSet.mem req r.inflight.(node)))
    r.buffers

(* ------------------------------------------------------------------ *)
(* Warnings                                                            *)
(* ------------------------------------------------------------------ *)

let warnings ~fname (r : result) =
  List.map
    (fun f ->
      match f with
      | Leak { req; rop; started } ->
          {
            Warning.kind = Warning.Request_leak { req; rop; started };
            func = fname;
            loc = (match started with l :: _ -> l | [] -> Loc.none);
          }
      | Double { req; loc; prior } ->
          {
            Warning.kind = Warning.Request_double_wait { req; prior };
            func = fname;
            loc;
          }
      | Stale { req; var; write; loc; started } ->
          {
            Warning.kind =
              Warning.Request_stale_buffer { req; var; write; started };
            func = fname;
            loc;
          }
      | Nonuniform { req; coll; sites; conds } ->
          {
            Warning.kind =
              Warning.Request_completion_mismatch { req; coll; sites; conds };
            func = fname;
            loc = (match sites with l :: _ -> l | [] -> Loc.none);
          })
    r.findings
