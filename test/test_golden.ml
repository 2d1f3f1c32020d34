(** Pinned static reports.  For every shipped program (the sample [.hml]
    files, the reproducers, the catalog at its three sizes) and for the
    injector mutants of the [compile] benchmark workload at seed 1, the
    MD5 of what

    {v parcoachc --json --taint-filter --interprocedural --races --requests --instrument selective FILE v}

    prints is recorded here: the JSON report, the instrumented program
    and the check counts.  The same report is pinned for the text of
    the fixed-seed generated corpus below (whose programs exercise
    criticals, reductions, sections and loop bounds) and, one digest
    per 100-entry slice, for the 2,400-program default farm corpus
    analysed as builder ASTs.  A change to any static pass that moves a
    warning, a location, a CC site or a byte of the rendering fails
    these tests.

    Pinned scheduler observables.  Every example, small catalog program
    and reproducer — plain and after selective instrumentation — plus
    small programs that drive each task-status transition of the
    simulator (collective completion, barrier release, critical handoff,
    receive woken by a send, [MPI_Wait] woken by a nonblocking round or
    by an [MPI_Irecv], a double-wait release, team join, finish) is run
    on 3 ranks × 2 threads under round-robin, random seeds 1, 2, 3, 42,
    7 and 1337 and one scripted choice list.  Each run is pinned by its
    outcome class, step count, spawned-task count and an MD5 of the
    outcome text, the per-step runnable counts and the print trace.
    The same harness pins two spawn-heavy programs and one program under
    hostile (negative, out-of-range) scripts on the schedules of its own
    shape, and a fixed-seed generated corpus (40 deterministic and 25
    racy programs drawn from [Test_qcheck]'s generators, the text of
    which is pinned by one MD5) with one line per program for all its
    runs.

    Pinned exploration observables.  Every example and reproducer, every
    reproducer again on 3 ranks at depth 10, [racy-ring] at depths 16
    and 20 and the first ten racy corpus programs at depth 4 are
    explored breadth-first and by DPOR.  Each exploration is
    pinned by its per-class counts, [runs], [replays], [pruned] and the
    order in which its witness classes were first observed — counts and
    classes, not fingerprints, so the fingerprint encoding stays free to
    change.  A program with same-block redeclarations and shadowing
    inside [for] and [parallel] bodies is explored too.

    Pinned overlay reports.  Every example and small catalog program
    under selective CC is run on 4 ranks × 3 threads at random seeds
    1–3, and hand-built traces cover the edge cases (empty and ragged
    streams, one rank, divergences at layers 0–2).  Each trace set is
    checked at fanout 2 and at the central fanout (one node over every
    rank) by both the post-hoc [Mustlike.Overlay.check] and the
    streaming [Mustlike.Stream], and both reports must equal one pin:
    verdict, rounds, messages and an MD5 of the rendered report. *)

open Minilang

let programs_dir = "../examples/programs"

let read path = In_channel.with_open_bin path In_channel.input_all

(* The compile workload's mutant set: for each bug and each Figure-1
   catalog program with a site for it, three seeded sites, keeping the
   mutants that validate. *)
let mutants ~seed =
  let rng = Random.State.make [| 0xc0; seed |] in
  let figure1 =
    List.map
      (fun (e : Benchsuite.Catalog.entry) -> (e.name, e.generate ()))
      Benchsuite.Catalog.all
  in
  List.concat_map
    (fun bug ->
      List.concat_map
        (fun (name, p) ->
          let nsites =
            if Benchsuite.Injector.targets_wait bug then
              Benchsuite.Injector.wait_count p
            else Benchsuite.Injector.collective_count p
          in
          let sites =
            if nsites > 0 then List.init 3 (fun _ -> Random.State.int rng nsites)
            else []
          in
          List.filter_map
            (fun index ->
              let m = Benchsuite.Injector.inject bug ~index p in
              if Validate.is_valid (Validate.check_program m) then
                Some
                  ( Printf.sprintf "mutant:%s@%s#%d"
                      (Benchsuite.Injector.short_name bug)
                      name index,
                    Pretty.program_to_string m )
              else None)
            sites)
        figure1)
    Benchsuite.Injector.all

(* The sample program files, in a fixed order. *)
let example_files () =
  Sys.readdir programs_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".hml")
  |> List.sort String.compare

(* The fixed-seed generated corpus: the first programs QCheck draws from
   [Test_qcheck]'s generators under fixed seeds.  [corpus_digest] pins
   their pretty-printed text, so a change to QCheck or to a generator
   fails as "corpus changed", not as an interpreter difference. *)
let draw gen ~seed n =
  QCheck.Gen.generate ~rand:(Random.State.make [| seed |]) ~n gen

let corpus = lazy (draw Test_qcheck.gen_program ~seed:19 40)

let racy_corpus = lazy (draw Test_qcheck.gen_racy_program ~seed:1312 25)

let numbered prefix l =
  List.mapi (fun i x -> (Printf.sprintf "%s-%02d" prefix i, x)) l

(* Every source input, as (name, source), in a fixed order. *)
let sources =
  lazy
    (let examples =
       List.map
         (fun f -> ("examples/" ^ f, read (Filename.concat programs_dir f)))
         (example_files ())
     in
     let reproducers =
       List.map
         (fun (e : Benchsuite.Reproducers.entry) ->
           ("reproducers/" ^ e.name, e.source))
         Benchsuite.Reproducers.all
     in
     let catalog =
       List.concat_map
         (fun (e : Benchsuite.Catalog.entry) ->
           List.map
             (fun (size, gen) ->
               ( Printf.sprintf "catalog/%s/%s" e.name size,
                 Pretty.program_to_string (gen ()) ))
             [
               ("small", e.generate_small);
               ("figure1", e.generate);
               ("large", e.generate_large);
             ])
         Benchsuite.Catalog.all
     in
     let generated =
       List.map
         (fun (name, p) -> (name, Pretty.program_to_string p))
         (numbered "corpus/program" (Lazy.force corpus)
         @ numbered "corpus/racy" (Lazy.force racy_corpus))
     in
     examples @ reproducers @ catalog @ mutants ~seed:1 @ generated)

let options =
  {
    Parcoach.Driver.default_options with
    taint_filter = true;
    interprocedural = true;
    races = true;
    requests = true;
  }

let invalid issues = Parcoach.Json_report.invalid_to_string issues ^ "\n"

(* What the parcoachc command above prints after parsing [program]. *)
let program_report program =
  let issues = Validate.check_program program in
  if not (Validate.is_valid issues) then invalid issues
  else
    let report = Parcoach.Driver.analyze ~options program in
    let mode = Parcoach.Instrument.Selective in
    let ccs, counters, returns = Parcoach.Instrument.check_counts report mode in
    String.concat ""
      [
        Parcoach.Json_report.to_string ~issues report;
        "\n";
        Pretty.program_to_string (Parcoach.Instrument.instrument report mode);
        Printf.sprintf "inserted checks: %d CC, %d counters, %d return checks\n"
          ccs counters returns;
      ]

(* The standard output of the parcoachc command above, on [src] read
   from a file named [file]. *)
let report ~file src =
  match
    Validate.catch_syntax_error (fun () -> Parser.parse_string ~file src)
  with
  | Error issue -> invalid [ issue ]
  | Ok program -> program_report program

(* The default farm corpus (400 families × 6 variants), analysed as the
   builder ASTs the farm itself analyses, in slices of [farm_slice]
   entries: one pin covers the concatenated reports of a slice. *)
let farm_slice = 100

let farm_slices =
  lazy
    (let corpus =
       Farm.Pipeline.corpus
         { Farm.Pipeline.default_spec with Farm.Pipeline.families = 400 }
     in
     List.init
       (Array.length corpus / farm_slice)
       (fun k ->
         ( Printf.sprintf "farm/%04d-%04d" (k * farm_slice)
             (((k + 1) * farm_slice) - 1),
           Array.to_list
             (Array.map
                (fun (e : Farm.Pipeline.entry) -> e.Farm.Pipeline.program)
                (Array.sub corpus (k * farm_slice) farm_slice)) )))

(* Every pinned input, as (name, rendering), in a fixed order. *)
let inputs =
  lazy
    (List.map
       (fun (name, src) -> (name, fun () -> report ~file:name src))
       (Lazy.force sources)
    @ List.map
        (fun (name, programs) ->
          (name, fun () -> String.concat "" (List.map program_report programs)))
        (Lazy.force farm_slices))

let digest render = Digest.to_hex (Digest.string (render ()))

(* (input, report digest). *)
let pinned =
  [
    ("examples/buggy_halo.hml",
     "71a156c8980597dd60ba8cc6eaf072e6");
    ("examples/farm_racy_update.hml",
     "b999e9d8413eeea884c8f6135fcafed0");
    ("examples/farm_rank_divergence.hml",
     "9f3370554f4a00f7e886774ef017ccaf");
    ("examples/ibarrier_divergence.hml",
     "f37f29cc17b14cfe43f913117ed25cba");
    ("examples/jacobi.hml",
     "9869631987d84d86dfcd09716724adae");
    ("examples/leaky_request.hml",
     "f6b111ac4304a4f01e8ccc0444408913");
    ("examples/pipeline.hml",
     "ff6033c6ca61986a689bd6f01891a494");
    ("examples/racy_counter.hml",
     "0766598b38e4f9f34bdd80e41f8a56f0");
    ("examples/racy_flag.hml",
     "65aca01c25a4d3c6a4f6384fa42e154a");
    ("examples/racy_ring.hml",
     "0fddec753393b11960fd9d020c7d4e27");
    ("reproducers/deadlock-barrier",
     "3e350cf7df437b819c1e65807f329d13");
    ("reproducers/racy-singles",
     "adf922d526501057161741a9a40b2530");
    ("reproducers/master-vs-single",
     "aa96eeecac8c956e5cae99a0b5520044");
    ("reproducers/racy-ring",
     "9f4ad91d434eb25ac765c4f0a0ac18d6");
    ("reproducers/sections-collectives",
     "01f13c1469df1a85cb79daf0301f8311");
    ("catalog/BT-MZ/small",
     "c955cb0e507f08523c9fb5b59006d780");
    ("catalog/BT-MZ/figure1",
     "d37a8486af2cb2306943ed05fca04bed");
    ("catalog/BT-MZ/large",
     "c71afdcf588245c7f7db53cde60a4bf0");
    ("catalog/SP-MZ/small",
     "45f2c99e9fd8fe683fdd63c20b5ef9ed");
    ("catalog/SP-MZ/figure1",
     "88b85a6ff9e4f224065ae4b2f85456f8");
    ("catalog/SP-MZ/large",
     "967b4de477a69279ee3eb88356e28f83");
    ("catalog/LU-MZ/small",
     "1bbbdc3a5f9e7cd1f599b8e5ebd0a47e");
    ("catalog/LU-MZ/figure1",
     "888e99fc8d0580dbdad7dc164dfe7a19");
    ("catalog/LU-MZ/large",
     "6e9a3a9fabbeb60a6c67e12f1a56e8b9");
    ("catalog/EPCC suite/small",
     "d59ada95f3710b5d88314b1656f2fe06");
    ("catalog/EPCC suite/figure1",
     "71c6f65051bc87bac30322d47cd5e601");
    ("catalog/EPCC suite/large",
     "9d75190c0d3cc0a6ea9bd71fe3ca5a5c");
    ("catalog/HERA/small",
     "715b3fbff289742ff3b58ff2399bd94d");
    ("catalog/HERA/figure1",
     "d2c83d81695f0b9f4e34b088e54b1599");
    ("catalog/HERA/large",
     "108279358744d0305bff366327292320");
    ("mutant:rank-divergence@BT-MZ#7",
     "344f27b16a310f4f1c75534984502e49");
    ("mutant:rank-divergence@BT-MZ#6",
     "87d9ad4cab1326281a83229dd2a415ab");
    ("mutant:rank-divergence@BT-MZ#5",
     "0fea87d2267c53d7fb49ddef3392ef6c");
    ("mutant:rank-divergence@SP-MZ#2",
     "8a9be32e423059757d91e4c587394674");
    ("mutant:rank-divergence@SP-MZ#6",
     "8fab13ceed136c13677e7f4bba426bed");
    ("mutant:rank-divergence@SP-MZ#4",
     "fd22ac53c0a1d061d50ebe43e1a33ccb");
    ("mutant:rank-divergence@LU-MZ#3",
     "e3bf26bbdd440f2425696b69c8592bf7");
    ("mutant:rank-divergence@LU-MZ#1",
     "080b4f7eef12884953f0d8ad07aa8a74");
    ("mutant:rank-divergence@LU-MZ#4",
     "825007af4c29e4f44e780208dd8145d7");
    ("mutant:rank-divergence@EPCC suite#18",
     "bd94f781a501c4cd190010b3d7cd75c4");
    ("mutant:rank-divergence@EPCC suite#32",
     "a9662870a38d51970e4082df86026dab");
    ("mutant:rank-divergence@EPCC suite#62",
     "63be41e2b34538a6b7dcc62d9ece59cc");
    ("mutant:rank-divergence@HERA#7",
     "447bab8755a3ac3c9b6dda338ad02e1a");
    ("mutant:rank-divergence@HERA#14",
     "3f73e04587384f164c46bbbcadb4794f");
    ("mutant:rank-divergence@HERA#4",
     "cb0536d847694a0dee479be6fbebeded");
    ("mutant:into-parallel@BT-MZ#5",
     "547687ca4ffe506d04c895c2361a5fac");
    ("mutant:into-parallel@BT-MZ#6",
     "ae64dc9852dec51c828562f6e525b8d7");
    ("mutant:into-parallel@BT-MZ#1",
     "02614323be223e502c61f29b4b8f4f13");
    ("mutant:into-parallel@SP-MZ#7",
     "5dade443031d765c63e5d00263f34f93");
    ("mutant:into-parallel@SP-MZ#6",
     "08d6ffbf577259da434a8648a3387968");
    ("mutant:into-parallel@SP-MZ#7",
     "5dade443031d765c63e5d00263f34f93");
    ("mutant:into-parallel@LU-MZ#6",
     "f962dc7ee9f2725e96381d6b2edc0e88");
    ("mutant:into-parallel@LU-MZ#6",
     "f962dc7ee9f2725e96381d6b2edc0e88");
    ("mutant:into-parallel@LU-MZ#3",
     "21cc8ab777f720a7c75de157f95e2125");
    ("mutant:into-parallel@EPCC suite#51",
     "1bf818c067478e177938fb560a131d02");
    ("mutant:into-parallel@EPCC suite#1",
     "664bbec82c72a6656c08a97280045612");
    ("mutant:into-parallel@EPCC suite#42",
     "6ed86cec8e865f1d1e3cc1057a7a1209");
    ("mutant:into-parallel@HERA#3",
     "324d4e7226b8b505d5a77f73e9551975");
    ("mutant:into-parallel@HERA#9",
     "83313d16c76fcce0f6938154e77419fa");
    ("mutant:into-parallel@HERA#3",
     "324d4e7226b8b505d5a77f73e9551975");
    ("mutant:into-sections@BT-MZ#5",
     "6093e13461b75315ea3dce1e247ae194");
    ("mutant:into-sections@BT-MZ#6",
     "d219bb83d8f020f7edae9514a0649722");
    ("mutant:into-sections@BT-MZ#3",
     "9e657616883c43d27f0a4232a8c88e86");
    ("mutant:into-sections@SP-MZ#3",
     "cc72d17579d20ce5e20d918bcd9b62ab");
    ("mutant:into-sections@SP-MZ#0",
     "ffed3cc6eec90c5df80801250d8ffa4c");
    ("mutant:into-sections@SP-MZ#0",
     "ffed3cc6eec90c5df80801250d8ffa4c");
    ("mutant:into-sections@LU-MZ#2",
     "663f42c3f6c8735805da85685e9c2faf");
    ("mutant:into-sections@LU-MZ#2",
     "663f42c3f6c8735805da85685e9c2faf");
    ("mutant:into-sections@LU-MZ#0",
     "55635bd5dfd2d44427699c60af705fec");
    ("mutant:into-sections@EPCC suite#62",
     "b3d2139a00a560f576d218957628f5b7");
    ("mutant:into-sections@HERA#5",
     "2add53e489e3ddbacb04d6d6fbad7871");
    ("mutant:into-sections@HERA#6",
     "be4356ca9095f17e68fa2589425c090b");
    ("mutant:into-sections@HERA#10",
     "81067195fa66082da726f1ddd2c5aac4");
    ("mutant:operator-mismatch@BT-MZ#3",
     "7f9f5beaab96ae0f07a9380612538c44");
    ("mutant:operator-mismatch@BT-MZ#5",
     "7943f8f7d363816fc65593011725f5a5");
    ("mutant:operator-mismatch@BT-MZ#1",
     "cfdd99f0204928b22196d8e5a456f572");
    ("mutant:operator-mismatch@SP-MZ#1",
     "913f9e64535058443058068cf3b22a6d");
    ("mutant:operator-mismatch@SP-MZ#3",
     "1fbe2bd8c069e156d71debdb6ca70426");
    ("mutant:operator-mismatch@SP-MZ#1",
     "913f9e64535058443058068cf3b22a6d");
    ("mutant:operator-mismatch@LU-MZ#7",
     "82d2a2fe2b22f28eadb81e39ef50aa25");
    ("mutant:operator-mismatch@LU-MZ#7",
     "82d2a2fe2b22f28eadb81e39ef50aa25");
    ("mutant:operator-mismatch@LU-MZ#5",
     "f45a1cccad4e2eb86290c02317bef797");
    ("mutant:operator-mismatch@EPCC suite#58",
     "45857d38ebe97821b0fffd2343eb380a");
    ("mutant:operator-mismatch@EPCC suite#22",
     "70e4318f39ba82c6071df4e39cf19ab4");
    ("mutant:operator-mismatch@EPCC suite#13",
     "22cfab9b375aaea053d48a612aaba0ac");
    ("mutant:operator-mismatch@HERA#6",
     "e95699d2634daf23ca0f73308c5b2145");
    ("mutant:operator-mismatch@HERA#5",
     "c9643101147936fade8f2de928085531");
    ("mutant:operator-mismatch@HERA#13",
     "0aa77cd8f479aec20872e8f387f391b5");
    ("mutant:extra-collective@BT-MZ#6",
     "55e18b8981e45bc83948a8333877b9db");
    ("mutant:extra-collective@BT-MZ#1",
     "8693cf43a2cab66dcc2fd82bd6206f46");
    ("mutant:extra-collective@BT-MZ#3",
     "87dfa7e5f0bd618c9928b85616e43a4d");
    ("mutant:extra-collective@SP-MZ#6",
     "823a8ec1ea12c25a42d0dc7adf182b04");
    ("mutant:extra-collective@SP-MZ#7",
     "860268dbda9db576f5eebc9d60dafda6");
    ("mutant:extra-collective@SP-MZ#7",
     "860268dbda9db576f5eebc9d60dafda6");
    ("mutant:extra-collective@LU-MZ#0",
     "43d6b2cfb35f4e083a1150e5dfc527fe");
    ("mutant:extra-collective@LU-MZ#2",
     "99facd4dafd5c177f120a16b742365e7");
    ("mutant:extra-collective@LU-MZ#2",
     "99facd4dafd5c177f120a16b742365e7");
    ("mutant:extra-collective@EPCC suite#33",
     "fee0805cd2a9829c870f227ddb1c1a62");
    ("mutant:extra-collective@EPCC suite#58",
     "33b32344887a53eeb01433b48e6fca13");
    ("mutant:extra-collective@EPCC suite#26",
     "2776cc3ca1bcaf4937ea44346a2860ca");
    ("mutant:extra-collective@HERA#7",
     "c0353e6d50edc435cf0c3031ee3343c0");
    ("mutant:extra-collective@HERA#11",
     "853661e18f0dbcc1fe89750ff7068982");
    ("mutant:extra-collective@HERA#7",
     "c0353e6d50edc435cf0c3031ee3343c0");
    ("mutant:drop-wait@EPCC suite#7",
     "c4d9cd4fac0d870af52810eb083fae26");
    ("mutant:drop-wait@EPCC suite#16",
     "b72c5864e8c24f85689feeb3ba6c4c32");
    ("mutant:drop-wait@EPCC suite#6",
     "8c86000bd78022af51c3f1463ed89aa2");
    ("mutant:double-wait@EPCC suite#21",
     "67724befe2c1c8ccc38a59d7f1547e2d");
    ("mutant:double-wait@EPCC suite#21",
     "67724befe2c1c8ccc38a59d7f1547e2d");
    ("mutant:double-wait@EPCC suite#19",
     "6872e42072617c8c32363d0e35d68005");
    ("mutant:divergent-wait@EPCC suite#22",
     "d86a32302528f1aa2f2a62f4e69a1bae");
    ("mutant:divergent-wait@EPCC suite#5",
     "91aca71a80d58a3072912585969f52aa");
    ("mutant:divergent-wait@EPCC suite#22",
     "d86a32302528f1aa2f2a62f4e69a1bae");
    ("corpus/program-00",
     "a5439ab23f0562b422e9f84c5f1a7a90");
    ("corpus/program-01",
     "4bc4900227071007390d75a662a093ef");
    ("corpus/program-02",
     "94c233c10eae194e428f61c7efb073ad");
    ("corpus/program-03",
     "0cbafc98d754ad74b1baeb5dff18aaae");
    ("corpus/program-04",
     "1864135fd5db3c06797d4a2e84c47497");
    ("corpus/program-05",
     "e705248373f7def2d43d4c654e6267f1");
    ("corpus/program-06",
     "a21100291db8c6d49263031673973500");
    ("corpus/program-07",
     "a2448a7e498f13ca906633b5ced2eb9d");
    ("corpus/program-08",
     "19321608cd914155c92894b18bba0454");
    ("corpus/program-09",
     "9db94154e9f537768860e52b5342f4b5");
    ("corpus/program-10",
     "658c4ea26e4538666faab2576a85bee8");
    ("corpus/program-11",
     "157603b7434d9c0fc239b715ccfb0ebc");
    ("corpus/program-12",
     "d5146a06e39f3119fb7451383ee0da24");
    ("corpus/program-13",
     "822d5c39e096d94d300d2b214e419142");
    ("corpus/program-14",
     "cf73c11e8db09d5a40c06690c95c2835");
    ("corpus/program-15",
     "aa7bba191347c4a4b7cb936dac310209");
    ("corpus/program-16",
     "1c8ed679757b21cdb2b5df3a22e05c48");
    ("corpus/program-17",
     "ea083202b457462f6fd11bd235a8fcbb");
    ("corpus/program-18",
     "2e615ecccd617cf0e3991d1662e5dd0a");
    ("corpus/program-19",
     "9070808c4ae24714e980e176f32b8ae8");
    ("corpus/program-20",
     "1c8ed679757b21cdb2b5df3a22e05c48");
    ("corpus/program-21",
     "4164701c6976dc0287f6455e54f536f6");
    ("corpus/program-22",
     "d205adf5cbb3c62d03db3c4da7f43fc6");
    ("corpus/program-23",
     "1c8ed679757b21cdb2b5df3a22e05c48");
    ("corpus/program-24",
     "650edafebe7c2c1607a6ad0bf05c9932");
    ("corpus/program-25",
     "1cdd35f2b15a9b54261c121198a80488");
    ("corpus/program-26",
     "519d19170507b3a2b4f4219dae82fec4");
    ("corpus/program-27",
     "a916d0b101c2a184b1a22afe774b5474");
    ("corpus/program-28",
     "25cd683c0dfb6e90ce4e3efa16086957");
    ("corpus/program-29",
     "11e653a20fa181d206629b9b6a8e21eb");
    ("corpus/program-30",
     "b50d92569c20c2e39ce5992d8c1d4781");
    ("corpus/program-31",
     "63bf5bb568aa42ed472c95611a8fd7de");
    ("corpus/program-32",
     "cd0b43a0f0c4000f561fb94b9df0ee8f");
    ("corpus/program-33",
     "d412c24513e361142e451530c5618294");
    ("corpus/program-34",
     "87f1c0dabb25dd4f68fbb453075fbaab");
    ("corpus/program-35",
     "07a807f44db9432eedbb486bce3b062f");
    ("corpus/program-36",
     "bf4c0205805f4dd6e739cf11915f41e6");
    ("corpus/program-37",
     "adb1a1a0a0458dbc28c4c1655a106106");
    ("corpus/program-38",
     "364913bce9fe079c42167667ec023388");
    ("corpus/program-39",
     "0fbead3f375946347763c950eedf5477");
    ("corpus/racy-00",
     "0064e6c6afdb71b8c478b6004afe10a7");
    ("corpus/racy-01",
     "d1dc2cd74b9fbeffa6e30d6d6a57eff6");
    ("corpus/racy-02",
     "385891ace3ecf611db0655f5ef89c879");
    ("corpus/racy-03",
     "7e4566ee99aa9d9f73507e4318af4e72");
    ("corpus/racy-04",
     "61fc2dfa1b39a10a06e262bb4ea8d16c");
    ("corpus/racy-05",
     "c4c4d4819132c8d75aa9abc08fe543f4");
    ("corpus/racy-06",
     "43e83f65f65ec650e9f6558c8c91a2ab");
    ("corpus/racy-07",
     "f30d3b95f5581f6fee5ecf77820c1ad6");
    ("corpus/racy-08",
     "8077fbbd55c1293163442d465ba853e8");
    ("corpus/racy-09",
     "de9053fbac89f69e4ab04bf60fe9c199");
    ("corpus/racy-10",
     "efca21a6cbb3ac713cd8cea1e44e0962");
    ("corpus/racy-11",
     "68c5a3abc135095f4a3e66a856798b4b");
    ("corpus/racy-12",
     "9223538dd6b9e153f6177ec998509645");
    ("corpus/racy-13",
     "14c1fde9f74c860ca85c5920b84cc108");
    ("corpus/racy-14",
     "a896fb482800cc608fa9b90eb462309b");
    ("corpus/racy-15",
     "8aa4ce417f7ea1d85d669633717dcb15");
    ("corpus/racy-16",
     "100c360e9df43617da353b82bf581baf");
    ("corpus/racy-17",
     "9e776e0041d0d1b1b03c21b89c36188e");
    ("corpus/racy-18",
     "bda4b7458b35e5369b5b8483cde7337a");
    ("corpus/racy-19",
     "5e77bf1c7f241ac0a34c571d93bf18ab");
    ("corpus/racy-20",
     "a74daadae0282f78326b75154b16c887");
    ("corpus/racy-21",
     "8077fbbd55c1293163442d465ba853e8");
    ("corpus/racy-22",
     "2ec1b88df091875c222f8a4a1dedf857");
    ("corpus/racy-23",
     "1982bf8d01c8b68c4047f29a7e290c01");
    ("corpus/racy-24",
     "8b375d6c7e46286447c9c759905006c0");
    ("farm/0000-0099",
     "cd19add0d5a821a6b71ef3a0170cfff2");
    ("farm/0100-0199",
     "83ac50b83b3f98cb4424c4b6056fcde0");
    ("farm/0200-0299",
     "eae51119039fbd66d8c116d8af5c1943");
    ("farm/0300-0399",
     "fad87c8a4ceb0b900933c4d2efc7a4f6");
    ("farm/0400-0499",
     "83ba7a1aed128b0a824cd7e87bff0ec5");
    ("farm/0500-0599",
     "47e405bb12b2c5380bb308576d546da5");
    ("farm/0600-0699",
     "2918441069dd7b1ad12af8180fdfe286");
    ("farm/0700-0799",
     "63003a2fe9a943221a3b94cf7bf09208");
    ("farm/0800-0899",
     "a9610f87cce38b49fd4de841cb42819a");
    ("farm/0900-0999",
     "7a55adfe4d51f79e3c154896365b88c9");
    ("farm/1000-1099",
     "3cc3b2df40c9ef15a366b531d94be0c8");
    ("farm/1100-1199",
     "0cbfa32be6c6a17989fc0856ca4f9c06");
    ("farm/1200-1299",
     "0a1df788f7a03e3785db12f90912dfca");
    ("farm/1300-1399",
     "1a52b0c7918ade2ef24a6454957b1619");
    ("farm/1400-1499",
     "2a562ac11c4d2f9ce5651d262b441421");
    ("farm/1500-1599",
     "27f6b1c171c34d189ef351ae4c1c7146");
    ("farm/1600-1699",
     "981d92052ca5d8b9bdb9d02087d5c322");
    ("farm/1700-1799",
     "24b7c0e81b833cb92dde3dece43d4a52");
    ("farm/1800-1899",
     "191e1f25022317bdddab16a6e79b9a50");
    ("farm/1900-1999",
     "1a5209a43c2e6cf54316464e9ed02b76");
    ("farm/2000-2099",
     "11a2732a1e5bdee8befdf8341c16612a");
    ("farm/2100-2199",
     "68b1c5781a85bba4a2ffa8f3783250ba");
    ("farm/2200-2299",
     "74465f78a7df3171a595e4111c1691c2");
    ("farm/2300-2399",
     "c20d353fb3227d1693c9b9915d05b5b2");
  ]

(* ------------------------------------------------------------------ *)
(* Scheduler observables                                                *)
(* ------------------------------------------------------------------ *)

(* Small programs, each reaching one task-status transition on every
   schedule below. *)
let sched_sources =
  [
    ( "sched/collective",
      {|func main() {
  if (rank() == 0) { compute(1); compute(1); compute(1); }
  var x = 0;
  x = MPI_Allreduce(rank() + 1, sum);
  MPI_Barrier();
  print(x);
}|} );
    ( "sched/barrier",
      {|func main() {
  pragma omp parallel num_threads(3) {
    compute(omp_tid());
    if (omp_tid() == 0) { compute(1); compute(1); }
    pragma omp barrier;
    print(omp_tid());
  }
}|} );
    ( "sched/critical",
      {|func main() {
  var c = 0;
  pragma omp parallel num_threads(3) {
    pragma omp critical {
      c = c + 1;
      compute(1);
      c = c + 1;
    }
  }
  print(c);
}|} );
    ( "sched/recv-wake",
      {|func main() {
  var x = 0;
  if (rank() == 0) { compute(1); compute(1); compute(1); MPI_Send(7, 1, 0); }
  if (rank() == 1) { x = MPI_Recv(0, 0); }
  print(x);
}|} );
    ( "sched/wait-round",
      {|func main() {
  if (rank() == 0) { compute(1); compute(1); compute(1); }
  r = MPI_Ibarrier();
  MPI_Wait(r);
  print(rank());
}|} );
    ( "sched/wait-irecv",
      {|func main() {
  var v = 0;
  if (rank() == 1) {
    r = MPI_Irecv(v, 0, 5);
    MPI_Wait(r);
  }
  if (rank() == 0) { compute(1); compute(1); compute(1); MPI_Send(3, 1, 5); }
  print(v);
}|} );
    ( "sched/double-wait",
      {|func main() {
  var v = 0;
  if (rank() == 1) {
    r = MPI_Irecv(v, 0, 5);
    pragma omp parallel num_threads(2) {
      MPI_Wait(r);
    }
  }
  if (rank() == 0) {
    compute(1); compute(1); compute(1); compute(1); compute(1); compute(1);
    MPI_Send(3, 1, 5);
  }
  print(v);
}|} );
  ]

let sched_schedules =
  [
    `Round_robin;
    `Random 1;
    `Random 2;
    `Random 3;
    `Scripted [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5; 8 ];
    `Random 42;
    `Random 7;
    `Random 1337;
  ]

(* A probe widens the runnable-count record from the default 64 steps to
   the probe depth. *)
let sched_depth = 4096

let outcome_class = function
  | Interp.Sim.Finished -> "finished"
  | Interp.Sim.Aborted _ -> "aborted"
  | Interp.Sim.Fault _ -> "fault"
  | Interp.Sim.Deadlock _ -> "deadlock"
  | Interp.Sim.Step_limit -> "step-limit"

let sched_config nranks schedule =
  {
    Interp.Sim.nranks;
    default_nthreads = 2;
    schedule;
    max_steps = 200_000;
    entry = "main";
    record_trace = true;
    thread_level = Mpisim.Thread_level.Multiple;
  }

(* "class steps spawned md5" for one run. *)
let sched_line (r : Interp.Sim.result) =
  let s = r.Interp.Sim.stats in
  let b = Buffer.create 1024 in
  Buffer.add_string b (Interp.Sim.outcome_to_string r.Interp.Sim.outcome);
  Buffer.add_string b "\ndegrees";
  for i = 0 to s.Interp.Sim.ndegrees - 1 do
    Buffer.add_char b ' ';
    Buffer.add_string b (string_of_int s.Interp.Sim.degrees.(i))
  done;
  Buffer.add_string b "\ntrace";
  List.iter
    (fun (rank, tid, v) -> Printf.bprintf b " %d/%d:%d" rank tid v)
    (Interp.Sim.trace r);
  Printf.sprintf "%s %d %d %s"
    (outcome_class r.Interp.Sim.outcome)
    s.Interp.Sim.steps s.Interp.Sim.tasks_spawned
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let sched_observe ~nranks program schedule =
  let probe = Interp.Sim.make_probe ~depth:sched_depth in
  sched_line
    (Interp.Sim.run ~config:(sched_config nranks schedule) ~probe program)

(* A folded corpus line: the run classes, then the MD5 of the run lines. *)
let fold_lines lines =
  let class_of line = List.hd (String.split_on_char ' ' line) in
  Printf.sprintf "%s %s"
    (String.concat "," (List.map class_of lines))
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* How a scheduled input runs: on [ranks] ranks × 2 threads, once per
   schedule, one pinned line per run — or, for a generated-corpus
   program ([fold]), one line for all its runs. *)
type sched_shape = {
  ranks : int;
  schedules : [ `Round_robin | `Random of int | `Scripted of int list ] list;
  fold : bool;
}

let standard = { ranks = 3; schedules = sched_schedules; fold = false }

let sched_lines program shape =
  let lines =
    List.map (sched_observe ~nranks:shape.ranks program) shape.schedules
  in
  if shape.fold then [ fold_lines lines ] else lines

(* Printing x0..x3 at the end of main makes the final values of the
   shared variables part of the pinned print trace. *)
let with_final_prints (p : Ast.program) =
  let prints =
    List.map
      (fun v -> Ast.mk ~loc:Loc.none (Ast.Print (Ast.Var v)))
      Test_qcheck.shared_vars
  in
  Builder.number_lines
    {
      Ast.funcs =
        List.map
          (fun (f : Ast.func) ->
            if f.Ast.fname = "main" then
              { f with Ast.body = f.Ast.body @ prints }
            else f)
          p.Ast.funcs;
    }

let corpus_text () =
  String.concat "\n"
    (List.map Pretty.program_to_string
       (Lazy.force corpus @ Lazy.force racy_corpus))

let corpus_digest = "40874a6f355858be318a3966ca258c75"

(* Every scheduled program, as (name, program, shape), in a fixed order;
   the ["+cc"] variant is the selectively instrumented program. *)
let sched_inputs =
  lazy
    (let examples =
       List.map
         (fun f ->
           ("examples/" ^ f, Parser.parse_file (Filename.concat programs_dir f)))
         (example_files ())
     in
     let catalog =
       List.map
         (fun (e : Benchsuite.Catalog.entry) ->
           ("catalog/" ^ e.name, e.generate_small ()))
         Benchsuite.Catalog.all
     in
     let reproducers =
       List.map
         (fun (e : Benchsuite.Reproducers.entry) ->
           ("reproducers/" ^ e.name, Benchsuite.Reproducers.program e))
         Benchsuite.Reproducers.all
     in
     let sched =
       List.map
         (fun (name, src) -> (name, Parser.parse_string ~file:name src))
         sched_sources
     in
     let two_ranks =
       { ranks = 2; schedules = Test_compile.schedules; fold = false }
     in
     let corpus_shape = { two_ranks with fold = true } in
     List.concat_map
       (fun (name, p) ->
         let report = Parcoach.Driver.analyze p in
         [
           (name, p, standard);
           ( name ^ "+cc",
             Parcoach.Instrument.instrument report Parcoach.Instrument.Selective,
             standard );
         ])
       (examples @ catalog @ reproducers @ sched)
     @ [
         ( "spawn-heavy/finishing",
           Test_compile.spawn_heavy "print(x);",
           two_ranks );
         ( "spawn-heavy/deadlocking",
           Test_compile.spawn_heavy_deadlock,
           two_ranks );
         ( "hostile-scripts",
           Test_compile.scripted_program,
           {
             ranks = 1;
             schedules =
               List.map (fun s -> `Scripted s) Test_compile.hostile_scripts;
             fold = false;
           } );
       ]
     @ List.map
         (fun (name, p) ->
           (name, with_final_prints p, corpus_shape))
         (numbered "corpus/program" (Lazy.force corpus))
     @ List.map
         (fun (name, p) -> (name, p, corpus_shape))
         (numbered "corpus/racy" (Lazy.force racy_corpus)))

let sched_pinned =
  [
    ( "examples/buggy_halo.hml",
      [
        "fault 113 9 c7f7f266cb574153c26b904b8a7841ea";
        "fault 100 9 36d42f2e2fd397e6e2140271b9ebe1b3";
        "fault 97 9 2ae544a8bb2e80e0fa908384bb9b20f3";
        "fault 104 9 84788eb4e841563e02726c6eda521694";
        "fault 114 9 2f730fce5e78cc52b88a5bb591f6792b";
        "fault 112 9 552445c27bbb6d6c37401584f0c174ab";
        "fault 96 9 306cc3ec6d6e862799af49375fade9c1";
        "fault 100 9 e60f3a9359d65f4f4dd5d8d73a5b93b7";
      ] );
    ( "examples/buggy_halo.hml+cc",
      [
        "aborted 116 9 7583a363718f98a9bd85473777a646be";
        "aborted 104 9 e254b8f81d9b13bb7bd9717b6dee1036";
        "aborted 95 9 c671b54920f97c43fec7a274895134cc";
        "aborted 113 9 01d8a3a13837b460197f3cf32b57d208";
        "aborted 117 9 367158b4a2b58f37135d9c3c959512c8";
        "aborted 108 9 2834a6c1ceecb85617fdec9b3bbfe997";
        "aborted 104 9 baffdbba511b1b2f353094050f142364";
        "aborted 99 9 498742696a2a0ae46160518406dff2d8";
      ] );
    ( "examples/farm_racy_update.hml",
      [
        "finished 42 9 2447166e4eaab203ee0a258d36807d66";
        "finished 42 9 bc68b46aea8b96027b6447831595bdac";
        "finished 42 9 b43d20606aa1f83717c41d5f378f7d0b";
        "finished 42 9 53496b59ec1b42c10941032ce9e3f70e";
        "finished 42 9 bef2cf8ce077eccbbf8d48d73b0c4790";
        "finished 42 9 12b52437bf9117372066028063a37039";
        "finished 42 9 d06faa26ec18120cc4b00e24fdae50cf";
        "finished 42 9 60118b61c9ce26d5e8da0015445e837c";
      ] );
    ( "examples/farm_racy_update.hml+cc",
      [
        "finished 42 9 2447166e4eaab203ee0a258d36807d66";
        "finished 42 9 bc68b46aea8b96027b6447831595bdac";
        "finished 42 9 b43d20606aa1f83717c41d5f378f7d0b";
        "finished 42 9 53496b59ec1b42c10941032ce9e3f70e";
        "finished 42 9 bef2cf8ce077eccbbf8d48d73b0c4790";
        "finished 42 9 12b52437bf9117372066028063a37039";
        "finished 42 9 d06faa26ec18120cc4b00e24fdae50cf";
        "finished 42 9 60118b61c9ce26d5e8da0015445e837c";
      ] );
    ( "examples/farm_rank_divergence.hml",
      [
        "deadlock 23 3 d8c2b0645883c72e3ab13bd7275aa85c";
        "deadlock 23 3 0362221364958ce38fb76b30a0f573f7";
        "deadlock 23 3 4a6f0b8a7d5ce79d4810168244260079";
        "deadlock 23 3 d25dac4a453d375b815ef24e43fdaf02";
        "deadlock 23 3 00c18aabe6d18a446c8adf8b232bee80";
        "deadlock 23 3 a31992083e3549b6d99057dceb0ba0e8";
        "deadlock 23 3 ea09fe2c4ba9d81bf86632c171aa77b6";
        "deadlock 23 3 42ed2c732f613a9d32d43a24b765683c";
      ] );
    ( "examples/farm_rank_divergence.hml+cc",
      [
        "aborted 34 3 72eff7a6209a8798ad9e227d563b350c";
        "aborted 34 3 869576a0a45da5eeb0c05c4f6281af36";
        "aborted 34 3 24cb33c3a74fd8c9242d87aeb9917172";
        "aborted 34 3 debbfaa64cf6235574eae13c11e84722";
        "aborted 34 3 11e2dfa32061b98c80a5f170a306c912";
        "aborted 34 3 d70056eb56ffe54566bf3427126a793f";
        "aborted 34 3 90aa54c43906967a1a74c0cd9ad31af4";
        "aborted 34 3 8b8f81fbc7611c72b862f76785e601b0";
      ] );
    ( "examples/ibarrier_divergence.hml",
      [
        "finished 19 3 1021978e4b870836c80b62966d0f5063";
        "finished 19 3 5f8d34565ee3eaa8e83417bafc888176";
        "finished 19 3 34415c0ee6bdfe938325c541fbb49629";
        "finished 19 3 d7e512c5c815cf81887afad9118ab08d";
        "finished 19 3 8ca6abe333d86fc61013e0ef5051daad";
        "finished 19 3 4520866a4238d3cdc3f7b354d31107ef";
        "finished 19 3 9fdff4f3f5849d34525ea64338be76e1";
        "finished 19 3 c322a4a75e4a302037d5405f557fc93e";
      ] );
    ( "examples/ibarrier_divergence.hml+cc",
      [
        "finished 19 3 1021978e4b870836c80b62966d0f5063";
        "finished 19 3 5f8d34565ee3eaa8e83417bafc888176";
        "finished 19 3 34415c0ee6bdfe938325c541fbb49629";
        "finished 19 3 d7e512c5c815cf81887afad9118ab08d";
        "finished 19 3 8ca6abe333d86fc61013e0ef5051daad";
        "finished 19 3 4520866a4238d3cdc3f7b354d31107ef";
        "finished 19 3 9fdff4f3f5849d34525ea64338be76e1";
        "finished 19 3 c322a4a75e4a302037d5405f557fc93e";
      ] );
    ( "examples/jacobi.hml",
      [
        "finished 2062 99 66a495f6d612110ec46f0ab59fc9ad9f";
        "finished 2062 99 700c52f0e6d3a07c3ac79179482d66af";
        "finished 2062 99 f714cdc28be3d3a2da9cd2b598bf32c0";
        "finished 2062 99 6b1922e87b7fae9c6e00e66abe446a4c";
        "finished 2062 99 f6082b21b35e8deb3c9bdd1c7447582c";
        "finished 2062 99 bf56a6cfb2c60a0984b3f12db47235f8";
        "finished 2062 99 b1adf502f74bec5e259493096bd4bea3";
        "finished 2062 99 2eef4daf5589cdd417fe37f48a7d74e9";
      ] );
    ( "examples/jacobi.hml+cc",
      [
        "finished 2110 99 d4a1c289b7cc6480ebfac65a15cc7ec7";
        "finished 2110 99 efdd4c7fb5ff3bcd870e90408432b099";
        "finished 2110 99 0e8be7ba7325313349f65c436d16f43f";
        "finished 2110 99 d157b178a4de9688268df5465ba11f42";
        "finished 2110 99 6d1e3c96a6268efd82d559bc66df3fb0";
        "finished 2110 99 7939b8605555e27016e31c64a5fa0635";
        "finished 2110 99 8a0eb299b772299eae6d673e57c4ffff";
        "finished 2110 99 35b9e3801b6ae0915abc6578e47dde12";
      ] );
    ( "examples/leaky_request.hml",
      [
        "finished 24 3 16b9ec085f92602fe8b69b22f399dd18";
        "finished 24 3 027dfc77f6aa6b6c0ed8ce146211c42b";
        "finished 24 3 2e72de07a87b9e757093c60901aca775";
        "finished 24 3 da03913a2d0f02e0274b8ff69dbe412e";
        "finished 24 3 6291ed6acc6ac5b848a137ff2868115c";
        "finished 24 3 58c172807a2652d70690f5b3b094d626";
        "finished 24 3 51ee9f44ecd916096dcc78acb23ed85c";
        "finished 24 3 63ceb860774e40e49d31fc1e92fe0228";
      ] );
    ( "examples/leaky_request.hml+cc",
      [
        "finished 24 3 16b9ec085f92602fe8b69b22f399dd18";
        "finished 24 3 027dfc77f6aa6b6c0ed8ce146211c42b";
        "finished 24 3 2e72de07a87b9e757093c60901aca775";
        "finished 24 3 da03913a2d0f02e0274b8ff69dbe412e";
        "finished 24 3 6291ed6acc6ac5b848a137ff2868115c";
        "finished 24 3 58c172807a2652d70690f5b3b094d626";
        "finished 24 3 51ee9f44ecd916096dcc78acb23ed85c";
        "finished 24 3 63ceb860774e40e49d31fc1e92fe0228";
      ] );
    ( "examples/pipeline.hml",
      [
        "finished 418 30 10f7aef0970b51752e959ebdb7d5feae";
        "finished 418 30 6b63a0146f95c5bbc86c31671830bc8b";
        "finished 418 30 618465bcabb7c23883ddfad1be2004b2";
        "finished 418 30 5c9eaa123786d9b7cddebf95937b6c0b";
        "finished 418 30 d77b61595a32bfee286ecc8d06e3edac";
        "finished 418 30 2f19013c27436383959cdb9a7b3dc995";
        "finished 418 30 0a859a43b175e80d679dc9da3037548d";
        "finished 418 30 770599ee2645f9d99e287bf248921edb";
      ] );
    ( "examples/pipeline.hml+cc",
      [
        "finished 442 30 e13c1947f1804a932ec1b76c58cbe3c3";
        "finished 442 30 326de3a54ddb2bab3449f0f5f68a9259";
        "finished 442 30 0a98e221abc1009ffba703686cfb46c5";
        "finished 442 30 7b18c6a7a82a4edf463931065d02ead9";
        "finished 442 30 468b810093669fa49f07b301f4f5f51b";
        "finished 442 30 b3f48333d62e6f4901f54dcb2aa4c9e3";
        "finished 442 30 9fdc6e6c8ccbc25851fbbdfb15fab974";
        "finished 442 30 a3c1b464fa42a89eb027265bd6a2abf3";
      ] );
    ( "examples/racy_counter.hml",
      [
        "finished 66 15 bc5a1fcda3702f0afa9ceda9c9bfacc8";
        "finished 66 15 7bc55448ebad53d07fb73f56fc50438c";
        "finished 66 15 b24981f5431529501df5478106eb790f";
        "finished 66 15 eab10bcee5ab210a66b153419383cc58";
        "finished 66 15 1d200f3327889c8fd163ffe6fa585249";
        "finished 66 15 f4e6033b34d311a0a7ac04eb9d69fb49";
        "finished 66 15 9a9e59527a2bb1811a26d53d1990b2de";
        "finished 66 15 cb84536729d670d9ad4d59cdc26ac5b8";
      ] );
    ( "examples/racy_counter.hml+cc",
      [
        "finished 66 15 bc5a1fcda3702f0afa9ceda9c9bfacc8";
        "finished 66 15 7bc55448ebad53d07fb73f56fc50438c";
        "finished 66 15 b24981f5431529501df5478106eb790f";
        "finished 66 15 eab10bcee5ab210a66b153419383cc58";
        "finished 66 15 1d200f3327889c8fd163ffe6fa585249";
        "finished 66 15 f4e6033b34d311a0a7ac04eb9d69fb49";
        "finished 66 15 9a9e59527a2bb1811a26d53d1990b2de";
        "finished 66 15 cb84536729d670d9ad4d59cdc26ac5b8";
      ] );
    ( "examples/racy_flag.hml",
      [
        "finished 69 9 2f7ff9596010b4fb124263f3524b85e7";
        "finished 69 9 ae2f65f5ac9b932213d388de26e48da3";
        "finished 69 9 5e63d118a929abea2fa734c4f5b60576";
        "finished 69 9 336e19b545e78d03c34b5b871d8a6256";
        "finished 69 9 1e14a0c33ebfdd5e74f216a855137258";
        "finished 69 9 25f52b87b35bbc082f70335a5f8d6849";
        "finished 69 9 b4ce13888f767bd80b95a828d102d18c";
        "finished 69 9 9265c1f7b35d0eeec8c6251567a152ce";
      ] );
    ( "examples/racy_flag.hml+cc",
      [
        "finished 69 9 2f7ff9596010b4fb124263f3524b85e7";
        "finished 69 9 ae2f65f5ac9b932213d388de26e48da3";
        "finished 69 9 5e63d118a929abea2fa734c4f5b60576";
        "finished 69 9 336e19b545e78d03c34b5b871d8a6256";
        "finished 69 9 1e14a0c33ebfdd5e74f216a855137258";
        "finished 69 9 25f52b87b35bbc082f70335a5f8d6849";
        "finished 69 9 b4ce13888f767bd80b95a828d102d18c";
        "finished 69 9 9265c1f7b35d0eeec8c6251567a152ce";
      ] );
    ( "examples/racy_ring.hml",
      [
        "aborted 41 12 2f15296ea54fbff47b003bdc1189b433";
        "aborted 28 9 4a662c799cdc7df42c367e9674bceb2e";
        "finished 246 12 ffa0a590fcd134ac8797ad3c19c04db7";
        "aborted 41 12 d351b91eea0b416e87ab94c31c5d4acc";
        "aborted 41 12 a355503d27c74cd717d9b81f3920d037";
        "aborted 33 9 1af52a2bbc44c84c8003ad31f097b4c5";
        "aborted 50 12 ce4396d077417fb5db7172ca0bb73620";
        "aborted 20 6 bbfcce4734590de17c73c8e0e251936f";
      ] );
    ( "examples/racy_ring.hml+cc",
      [
        "aborted 41 12 2f15296ea54fbff47b003bdc1189b433";
        "aborted 28 9 4a662c799cdc7df42c367e9674bceb2e";
        "finished 246 12 ffa0a590fcd134ac8797ad3c19c04db7";
        "aborted 41 12 d351b91eea0b416e87ab94c31c5d4acc";
        "aborted 41 12 a355503d27c74cd717d9b81f3920d037";
        "aborted 33 9 1af52a2bbc44c84c8003ad31f097b4c5";
        "aborted 50 12 ce4396d077417fb5db7172ca0bb73620";
        "aborted 20 6 bbfcce4734590de17c73c8e0e251936f";
      ] );
    ( "catalog/BT-MZ",
      [
        "finished 8837 57 648444feb1f4a22996dce925c344d84e";
        "finished 8837 57 ea3dcc6df29bdee36436d5e85682c591";
        "finished 8837 57 ebcfa4bd6611663ed3ebfbbfcb096bbf";
        "finished 8837 57 eab943956dff81966c8721eaec04f2be";
        "finished 8837 57 08b028fb5a233f0a319658f67d0850ed";
        "finished 8837 57 ee931e6ea2cc85821895b8c3dfaf88b7";
        "finished 8837 57 2b2ebfcdfc21d0f97e2f85bb42e260b8";
        "finished 8837 57 056315f942cafb39ef65c43ac2c9a5fb";
      ] );
    ( "catalog/BT-MZ+cc",
      [
        "finished 8855 57 648444feb1f4a22996dce925c344d84e";
        "finished 8855 57 ea3dcc6df29bdee36436d5e85682c591";
        "finished 8855 57 ebcfa4bd6611663ed3ebfbbfcb096bbf";
        "finished 8855 57 eab943956dff81966c8721eaec04f2be";
        "finished 8855 57 08b028fb5a233f0a319658f67d0850ed";
        "finished 8855 57 ee931e6ea2cc85821895b8c3dfaf88b7";
        "finished 8855 57 2b2ebfcdfc21d0f97e2f85bb42e260b8";
        "finished 8855 57 056315f942cafb39ef65c43ac2c9a5fb";
      ] );
    ( "catalog/SP-MZ",
      [
        "finished 8945 69 97285b3ea3fbc0013a3d1c362fa7ffc6";
        "finished 8945 69 b341e64e81ed0af70b3327e8421a823a";
        "finished 8945 69 65ae659776100c1b619942fa95e54de3";
        "finished 8945 69 4dcfcf569240dfc9367436afb7ca7889";
        "finished 8945 69 ca6f0853a6043e3973381e53dc2648e0";
        "finished 8945 69 6ece2d3e540f460176a2d79a39d9587e";
        "finished 8945 69 186f8e4714443b6eebdd2fb6e1d292c8";
        "finished 8945 69 5ae7e93746820fa4895d8d9b76109a4b";
      ] );
    ( "catalog/SP-MZ+cc",
      [
        "finished 8963 69 97285b3ea3fbc0013a3d1c362fa7ffc6";
        "finished 8963 69 b341e64e81ed0af70b3327e8421a823a";
        "finished 8963 69 65ae659776100c1b619942fa95e54de3";
        "finished 8963 69 4dcfcf569240dfc9367436afb7ca7889";
        "finished 8963 69 ca6f0853a6043e3973381e53dc2648e0";
        "finished 8963 69 6ece2d3e540f460176a2d79a39d9587e";
        "finished 8963 69 186f8e4714443b6eebdd2fb6e1d292c8";
        "finished 8963 69 5ae7e93746820fa4895d8d9b76109a4b";
      ] );
    ( "catalog/LU-MZ",
      [
        "finished 4493 45 e556fd6b5b369e703aad168e44a63467";
        "finished 4493 45 f25db3112be5f1c6696bf9eaf41fe37c";
        "finished 4493 45 c80e6005c85a6c41f7d1aceb61016bf2";
        "finished 4493 45 1ccb9dca1cad01f5c85434a343c70aa4";
        "finished 4493 45 d84bc9ed558de9167e2bc2722ee834cc";
        "finished 4493 45 34271352c1a26c536ce86f90a1bca364";
        "finished 4493 45 fc7f6bd8c7209e095442d3b5fd614bfe";
        "finished 4493 45 68212060b3cb4070db81a7bdfc9f468a";
      ] );
    ( "catalog/LU-MZ+cc",
      [
        "finished 4511 45 502d498e417e19010cb3e27a3e00a2c3";
        "finished 4511 45 4819b53d0cd9e7b0201cc801dc85df85";
        "finished 4511 45 08abed409b99ba58103996b58b04440f";
        "finished 4511 45 a1a745ecab6d532c6fc926cad99ddcf7";
        "finished 4511 45 22e5ca2bfaa9b64da197f113fb56f5fd";
        "finished 4511 45 6f4f8ba269fba134f1ac8847216541c7";
        "finished 4511 45 28d17eb215428cdb1ede08fd7dbc5cf3";
        "finished 4511 45 c585ebf2ee18a0cbee1a36325033001a";
      ] );
    ( "catalog/EPCC suite",
      [
        "finished 2062 99 ae63ec37e57bd723499f0af86c027c40";
        "finished 2062 99 fca4bc95f46398c27707c88f1017c450";
        "finished 2062 99 85a854d35e90b6c3d134b7c52c621bed";
        "finished 2062 99 12c82fcd6da9b984b86b2fa326130132";
        "finished 2062 99 84300bafe59bd923c69e1447a5c502c6";
        "finished 2062 99 ee051f3673b7d6fbbb914551d0e94360";
        "finished 2062 99 9546457053f8eb3c335c70eaf40ab0c9";
        "finished 2062 99 d40aa40dfa4018b107ad83d53750c6d1";
      ] );
    ( "catalog/EPCC suite+cc",
      [
        "finished 2224 99 434733a94813bdce1235da8ea422418c";
        "finished 2224 99 6377c773bf04620550d5124b7b0b7713";
        "finished 2224 99 85140c62dd6c18f616cd598155168251";
        "finished 2224 99 09688d6e40565f8b734631a6ecf56b80";
        "finished 2224 99 23c0e8fbf5b829f7ca52120539137535";
        "finished 2224 99 c4caa21962d4a5176e17ba9be97817ec";
        "finished 2224 99 d6a0d10d432446075f61b6f642b5b430";
        "finished 2224 99 64e9886e75fe2f644626baad6ccd3f3d";
      ] );
    ( "catalog/HERA",
      [
        "finished 8312 405 e0bfad34c6f1ccf77fdf9a3e764a8947";
        "finished 8312 405 298dc005f9e0d7523f11eaeaf6858117";
        "finished 8312 405 53e6d172b794bcf9664d8fc13aeba44d";
        "finished 8312 405 c0807a3cb5ee1d7dbf3b0167fb8bd1e0";
        "finished 8312 405 29bfed664a1b1178078b316de5c02b89";
        "finished 8312 405 7ed7c48ac10b00b9613cb64e4cd8b9c8";
        "finished 8312 405 cd9a1a2408d7d5ef842326ce876678cb";
        "finished 8312 405 a0b44fe72f2ae9cf28f1ff73b3f7dc83";
      ] );
    ( "catalog/HERA+cc",
      [
        "finished 8660 405 827f08cce6f3f6aeb20ae7f774f3e14a";
        "finished 8660 405 f82d02477f8378c2dc795f9e11143aef";
        "finished 8660 405 d85fa6afda23a6c133738eb77af09d79";
        "finished 8660 405 4e27561acc7ae2fd00407fd9fef21d2d";
        "finished 8660 405 95ba94a533fe201155319c16b20e6d89";
        "finished 8660 405 e6b7afe564c19ab514a088c3483799dd";
        "finished 8660 405 5299d54b0b34d01a913ace532992b44f";
        "finished 8660 405 728bcd23777461fce502ba01f69bf05a";
      ] );
    ( "reproducers/deadlock-barrier",
      [
        "deadlock 18 3 6d8580478904b004258d2bfbaa9f8c4f";
        "deadlock 18 3 0bbb81bab5dcc511ba858a132dce952e";
        "deadlock 18 3 0df57602d99fb375c7223b0bc999dceb";
        "deadlock 18 3 38b8a5b6d39a3a6f7b6696d7925f1dd6";
        "deadlock 18 3 6d8580478904b004258d2bfbaa9f8c4f";
        "deadlock 18 3 d275ca05e42f29a26b004fd1e15262b7";
        "deadlock 18 3 fa526d04e73907d342be85daaf8ca6e2";
        "deadlock 18 3 9259c2698a8c7f8a6af2738b20d4a2f0";
      ] );
    ( "reproducers/deadlock-barrier+cc",
      [
        "aborted 20 3 e858202cd8c11d6f4f4f90e285170d04";
        "aborted 20 3 baab74bc2fc49fabcd6681a00e1ce1a8";
        "aborted 20 3 cc63e2a5f7260e86feb04279ca22eaa5";
        "aborted 20 3 55b672f2e1113a745eda3049c40c5e05";
        "aborted 20 3 e858202cd8c11d6f4f4f90e285170d04";
        "aborted 20 3 e858202cd8c11d6f4f4f90e285170d04";
        "aborted 20 3 5d5ab40891b2ceb76b749f8028448801";
        "aborted 20 3 e5181381616775c7382955d90105d6d0";
      ] );
    ( "reproducers/racy-singles",
      [
        "aborted 21 9 3429502da3d7ed1a644374c9d6a7957c";
        "aborted 14 7 881cf585dda7e1c88d9d52ce301debf2";
        "aborted 18 9 b73fcbbdd4646fb6bd2fea25f9e9f8f9";
        "aborted 18 9 fe121ad475187236f21bd60dc06fefae";
        "aborted 21 9 bcc7b51574b7004c4b3a40fe61cdfcde";
        "aborted 12 7 7c69369e788b705d72fc8e5f467b2489";
        "aborted 20 9 ac346d702f121847833308093a7a3a22";
        "aborted 22 9 f6fb8f9ac1a500593817a43a205dd353";
      ] );
    ( "reproducers/racy-singles+cc",
      [
        "aborted 22 9 563535de6ece6e51f05ab34456f57e50";
        "aborted 13 7 3a5589ce6bc0f548f6f759b664b9311b";
        "aborted 18 9 fd6ba6a073c057463b90f8a4e4e81748";
        "aborted 15 7 ed9eb0b30e012585264a23b84f236138";
        "aborted 21 9 19e069e44345196cf25611ee61bd6c27";
        "aborted 16 7 9ca97c9a115cbcf073ec2d5a97cb99a8";
        "fault 25 9 f18e057c232d1cc22271e2093eb5b015";
        "aborted 22 9 d64e83b1438a0e3e36d4da732ddfa779";
      ] );
    ( "reproducers/master-vs-single",
      [
        "fault 17 9 cb1f100874105bdcefc6ef1e3ed026f1";
        "fault 16 9 795dd2670ada751cbc9f3faa19a632bd";
        "fault 18 9 4bee2ba7cc17be1083398671bcba9fd1";
        "fault 17 9 a65edbc0a5982ef7a62b5f69b367f98f";
        "fault 18 9 2346953ff2b685f40eb9a1e483ee7740";
        "fault 17 9 18d4f602c8665399f9ba09093efd5ccb";
        "fault 19 9 d5e82fc59c423db3a4e276d4225876fc";
        "fault 19 9 9f611dbc424dd40efd3f6784b6bf53d6";
      ] );
    ( "reproducers/master-vs-single+cc",
      [
        "aborted 20 9 3877af381d7a80775c51f88831a6594e";
        "aborted 14 7 a7ababda7ff769dfb1ecda4af9e875b1";
        "aborted 18 9 e913331b7604e801a9d6ed8af15341de";
        "aborted 18 9 8b9e50e8173f6048d0f019208d6b9157";
        "aborted 16 9 c237e6fb0c331e0bb1bf1190fe550228";
        "aborted 16 7 05376332ef57bd398deeeb9671f10364";
        "aborted 20 9 e592e8cf831880560007aac72025d38e";
        "aborted 19 9 f45d2bf49c7a9abf6c1c14873de4647f";
      ] );
    ( "reproducers/racy-ring",
      [
        "aborted 41 12 95a92a2b8961dadc58d4abca680f31f0";
        "aborted 28 9 39befa775db528340d31aa750ee8ac02";
        "finished 246 12 ffa0a590fcd134ac8797ad3c19c04db7";
        "aborted 41 12 05a8746a8d8ea3542e96e44becbfa3a5";
        "aborted 41 12 045b4a25820dbdc7891d2c1a68f288cf";
        "aborted 33 9 78bc8fc27c6f5151a86d29ae2e5514c8";
        "aborted 50 12 0aa437f8b3c0c5e4236efba5742dcc6f";
        "aborted 20 6 e277ef92cf2b91ff8ea9ff951d75be7e";
      ] );
    ( "reproducers/racy-ring+cc",
      [
        "aborted 41 12 95a92a2b8961dadc58d4abca680f31f0";
        "aborted 28 9 39befa775db528340d31aa750ee8ac02";
        "finished 246 12 ffa0a590fcd134ac8797ad3c19c04db7";
        "aborted 41 12 05a8746a8d8ea3542e96e44becbfa3a5";
        "aborted 41 12 045b4a25820dbdc7891d2c1a68f288cf";
        "aborted 33 9 78bc8fc27c6f5151a86d29ae2e5514c8";
        "aborted 50 12 0aa437f8b3c0c5e4236efba5742dcc6f";
        "aborted 20 6 e277ef92cf2b91ff8ea9ff951d75be7e";
      ] );
    ( "reproducers/sections-collectives",
      [
        "fault 25 12 1c1f7ab7e85c0347fd7e51fc7e969170";
        "fault 19 12 80bf6121e4eac4c75b48db532824be17";
        "fault 24 12 d56ef94196794e4a0f417621c8ea1c39";
        "fault 22 12 5bab03a5a644199212b6403210607a8b";
        "fault 22 12 ea8eae45006d693fd5ff639aef86a817";
        "finished 81 12 be3da2ca406913159c851f41134113f1";
        "fault 18 12 15763fa5a5bb02ed599cf17c4f5f5138";
        "fault 22 12 f714e88784a172ef2845ae16c4a29a43";
      ] );
    ( "reproducers/sections-collectives+cc",
      [
        "aborted 23 12 541908a56cf0fdbdce1d37d35d6a3c74";
        "aborted 19 12 048bfbf13fe3aa59c3fed4fe07d3b42b";
        "aborted 32 12 70d2505c8e52c65c00d4dd3f692da5b4";
        "aborted 28 12 49e7cfcba165bffdc8adb371714fb0fa";
        "aborted 21 12 24e1ab21b3c2cec3f23e664b26951b37";
        "aborted 23 12 d4446a5b2a4ebf41a02867da76315ce8";
        "aborted 20 12 1fba74d89b468f400c286c80c1aa191f";
        "aborted 23 12 bb33d4c2bc798063adc75ed18ca8d844";
      ] );
    ( "sched/collective",
      [
        "finished 27 3 91897dfb9aacfe991c61608a1bf42184";
        "finished 27 3 9d71a17c67cf698880a64988dc66f77e";
        "finished 27 3 d8c2d9a80191122b30c26783478ed8ea";
        "finished 27 3 4e58c6f47e3cb8d74d5d885c0745a6fb";
        "finished 27 3 4bd8ad3e4ffa0dc50948f0127e95b07d";
        "finished 27 3 bac867a825cd0405bc86dccdbc6f8774";
        "finished 27 3 d5887bec3b0e0d374d3089339cfc0cfb";
        "finished 27 3 5923e830a3591121c4766c4f2649d0b9";
      ] );
    ( "sched/collective+cc",
      [
        "finished 27 3 91897dfb9aacfe991c61608a1bf42184";
        "finished 27 3 9d71a17c67cf698880a64988dc66f77e";
        "finished 27 3 d8c2d9a80191122b30c26783478ed8ea";
        "finished 27 3 4e58c6f47e3cb8d74d5d885c0745a6fb";
        "finished 27 3 4bd8ad3e4ffa0dc50948f0127e95b07d";
        "finished 27 3 bac867a825cd0405bc86dccdbc6f8774";
        "finished 27 3 d5887bec3b0e0d374d3089339cfc0cfb";
        "finished 27 3 5923e830a3591121c4766c4f2649d0b9";
      ] );
    ( "sched/barrier",
      [
        "finished 78 12 ba20d0052c12b6e58e6b68ba6399da56";
        "finished 78 12 dc8bd5de4b0eb58cc0e5ffccc46376ec";
        "finished 78 12 714108e17af6088bfa556b97f01602e0";
        "finished 78 12 04859c6ce987c94dc6580624bfd30dbe";
        "finished 78 12 827831e329c7af3216f4ca9c506d53db";
        "finished 78 12 00cb597d007b7f4c50de88bb48f8744b";
        "finished 78 12 ca8e90f18e355d687644ddb4c374853d";
        "finished 78 12 c39e3ed116ea67a2c5d310c03c2d6da0";
      ] );
    ( "sched/barrier+cc",
      [
        "finished 78 12 ba20d0052c12b6e58e6b68ba6399da56";
        "finished 78 12 dc8bd5de4b0eb58cc0e5ffccc46376ec";
        "finished 78 12 714108e17af6088bfa556b97f01602e0";
        "finished 78 12 04859c6ce987c94dc6580624bfd30dbe";
        "finished 78 12 827831e329c7af3216f4ca9c506d53db";
        "finished 78 12 00cb597d007b7f4c50de88bb48f8744b";
        "finished 78 12 ca8e90f18e355d687644ddb4c374853d";
        "finished 78 12 c39e3ed116ea67a2c5d310c03c2d6da0";
      ] );
    ( "sched/critical",
      [
        "finished 87 12 6a62f9e359be6b619d84b5a59c625439";
        "finished 87 12 3a2b6709a6438ef5412fdd8dd9d302e1";
        "finished 87 12 efef4f3758efee534616202c38814b5a";
        "finished 87 12 09039fdcc00ba6b55b3c272955f69b4f";
        "finished 87 12 8474d77960ff9fbc3544258405fc5d0d";
        "finished 87 12 78c7b504932ea4bee8e8ad2ae9a80473";
        "finished 87 12 23022b14de899d9d5a7a0b94ef1ccf98";
        "finished 87 12 6a243dd5f39553e6c3f3803ea68bc1a2";
      ] );
    ( "sched/critical+cc",
      [
        "finished 87 12 6a62f9e359be6b619d84b5a59c625439";
        "finished 87 12 3a2b6709a6438ef5412fdd8dd9d302e1";
        "finished 87 12 efef4f3758efee534616202c38814b5a";
        "finished 87 12 09039fdcc00ba6b55b3c272955f69b4f";
        "finished 87 12 8474d77960ff9fbc3544258405fc5d0d";
        "finished 87 12 78c7b504932ea4bee8e8ad2ae9a80473";
        "finished 87 12 23022b14de899d9d5a7a0b94ef1ccf98";
        "finished 87 12 6a243dd5f39553e6c3f3803ea68bc1a2";
      ] );
    ( "sched/recv-wake",
      [
        "finished 29 3 72e0beba2f54c4adda6282256059cb57";
        "finished 29 3 5fc4df4a2e7a23f5060717bc02d0f299";
        "finished 29 3 8631de8170c5a3f84e2e721ab8566789";
        "finished 29 3 5dd2c50c62fdb3aa92af39370561e28c";
        "finished 29 3 1d8b9a1a15aa6cb718ee13614ef30c37";
        "finished 29 3 dc2f92c576dc1cefd562cc30673276b6";
        "finished 29 3 cd7ad7415838c3cf8d6a663eda081eaa";
        "finished 29 3 750456d44d0989773c33b60951675a3e";
      ] );
    ( "sched/recv-wake+cc",
      [
        "finished 29 3 72e0beba2f54c4adda6282256059cb57";
        "finished 29 3 5fc4df4a2e7a23f5060717bc02d0f299";
        "finished 29 3 8631de8170c5a3f84e2e721ab8566789";
        "finished 29 3 5dd2c50c62fdb3aa92af39370561e28c";
        "finished 29 3 1d8b9a1a15aa6cb718ee13614ef30c37";
        "finished 29 3 dc2f92c576dc1cefd562cc30673276b6";
        "finished 29 3 cd7ad7415838c3cf8d6a663eda081eaa";
        "finished 29 3 750456d44d0989773c33b60951675a3e";
      ] );
    ( "sched/wait-round",
      [
        "finished 24 3 9813a050b3ed921ba14f4b44430b25e2";
        "finished 24 3 9bb3410671f937df25ad0f2d3fedaa4e";
        "finished 24 3 70f567888bd21d080d39a49d3779eceb";
        "finished 24 3 57d96884716b9ebb0099e058e13b6bc7";
        "finished 24 3 bd01ce58a9ba5bff6c7bb4778fb71a8d";
        "finished 24 3 b33aaba2c7fd5290bc8a4d6db7c21a10";
        "finished 24 3 7aefba71eba64afea042abcc57bce61f";
        "finished 24 3 c3c4ab797a6d48d51acc04d292f8c6c7";
      ] );
    ( "sched/wait-round+cc",
      [
        "finished 24 3 9813a050b3ed921ba14f4b44430b25e2";
        "finished 24 3 9bb3410671f937df25ad0f2d3fedaa4e";
        "finished 24 3 70f567888bd21d080d39a49d3779eceb";
        "finished 24 3 57d96884716b9ebb0099e058e13b6bc7";
        "finished 24 3 bd01ce58a9ba5bff6c7bb4778fb71a8d";
        "finished 24 3 b33aaba2c7fd5290bc8a4d6db7c21a10";
        "finished 24 3 7aefba71eba64afea042abcc57bce61f";
        "finished 24 3 c3c4ab797a6d48d51acc04d292f8c6c7";
      ] );
    ( "sched/wait-irecv",
      [
        "finished 30 3 f454ad940f367953e8f0b31779f1f80c";
        "finished 30 3 9cfa81f2e1e03fa6d9cc49ac3c952fed";
        "finished 30 3 fcc0bd32b312f34589c852287edd23ed";
        "finished 30 3 ed0ae5c02a98e19c1a5e24203b80902b";
        "finished 30 3 a539d5ee95f63d142b59473e7c1c4652";
        "finished 30 3 1da9a088afec760cc192313c47b8a757";
        "finished 30 3 7cc2c7bc0c260be3c5c0bac79dfb8e86";
        "finished 30 3 67020c96b76e05125908bda5bfef6029";
      ] );
    ( "sched/wait-irecv+cc",
      [
        "finished 30 3 f454ad940f367953e8f0b31779f1f80c";
        "finished 30 3 9cfa81f2e1e03fa6d9cc49ac3c952fed";
        "finished 30 3 fcc0bd32b312f34589c852287edd23ed";
        "finished 30 3 ed0ae5c02a98e19c1a5e24203b80902b";
        "finished 30 3 a539d5ee95f63d142b59473e7c1c4652";
        "finished 30 3 1da9a088afec760cc192313c47b8a757";
        "finished 30 3 7cc2c7bc0c260be3c5c0bac79dfb8e86";
        "finished 30 3 67020c96b76e05125908bda5bfef6029";
      ] );
    ( "sched/double-wait",
      [
        "finished 39 5 b8367d8621e5818c5d143c794daca359";
        "finished 39 5 85fc4b61bc61f09021d78ede03017c3c";
        "finished 39 5 ac4c6c7468579589b27354267e7bfece";
        "finished 39 5 9d867d98847c1ef11d742ea22a23deeb";
        "finished 39 5 a9c3affac10892e67f8fb90a98b72875";
        "finished 39 5 a9676fed9b08411a359be45b0b1411e4";
        "finished 39 5 77cba29b12f4b188c9a06410bac3b367";
        "finished 39 5 c45e9f988e110b1cd5ede8a5ffc37a7d";
      ] );
    ( "sched/double-wait+cc",
      [
        "finished 39 5 b8367d8621e5818c5d143c794daca359";
        "finished 39 5 85fc4b61bc61f09021d78ede03017c3c";
        "finished 39 5 ac4c6c7468579589b27354267e7bfece";
        "finished 39 5 9d867d98847c1ef11d742ea22a23deeb";
        "finished 39 5 a9c3affac10892e67f8fb90a98b72875";
        "finished 39 5 a9676fed9b08411a359be45b0b1411e4";
        "finished 39 5 77cba29b12f4b188c9a06410bac3b367";
        "finished 39 5 c45e9f988e110b1cd5ede8a5ffc37a7d";
      ] );
    ( "spawn-heavy/finishing",
      [
        "finished 20596 1262 af846a147c14e35d9d78e8134f7005c2";
        "finished 20596 1262 72240edc34d7abc28b60e1e44ca151bc";
        "finished 20596 1262 5eb186bedf84bf3d9fe18e1385b8c52e";
        "finished 20596 1262 0d9c9ff9556d4202c4366bf47f83af66";
        "finished 20596 1262 a0df64c9a78545f661411be4e3c581fb";
      ] );
    ( "spawn-heavy/deadlocking",
      [
        "deadlock 20614 1268 3599c58ff57205355f0893aac0c5c202";
        "deadlock 20614 1268 af476b565ae8ac227a3d31220f45eb28";
        "deadlock 20614 1268 f8bc862ae32af42963903e3834dff265";
        "deadlock 20614 1268 9918fa18989230b1bc69b049dbd42719";
        "deadlock 20614 1268 01abaad89041e6ea173819dece9192b8";
      ] );
    ( "hostile-scripts",
      [
        "finished 12 4 1ed8bb420fa47ea2b71d918d3ce0161c";
        "finished 12 4 49d30e11f9874cf619e754f8b7a5dd76";
        "finished 12 4 3d02fb7b78955ee6865e830848b3a6c5";
      ] );
    ( "corpus/program-00",
      [
        "finished,finished,finished,finished,finished fa07986616a01246784b29b4148b7d96";
      ] );
    ( "corpus/program-01",
      [
        "finished,finished,finished,finished,finished 46beb0de6522f8fa4fc4e92097b7c3f0";
      ] );
    ( "corpus/program-02",
      [
        "finished,finished,finished,finished,finished 38260121e336d719c1973dfd039654ce";
      ] );
    ( "corpus/program-03",
      [
        "finished,finished,finished,finished,finished 4fec43b94d68b407ad873cbfd4a4ec6c";
      ] );
    ( "corpus/program-04",
      [
        "finished,finished,finished,finished,finished 7b6c268268d9a0c46d9894e9a34ecd29";
      ] );
    ( "corpus/program-05",
      [
        "finished,finished,finished,finished,finished f6ed8603f711c4ff267c580097eea1eb";
      ] );
    ( "corpus/program-06",
      [
        "finished,finished,finished,finished,finished 170fc818c64b7f6fbf061cd2df334cd1";
      ] );
    ( "corpus/program-07",
      [
        "finished,finished,finished,finished,finished 0afacfe6bbad1f5def267f0efccd78d4";
      ] );
    ( "corpus/program-08",
      [
        "finished,finished,finished,finished,finished d0ff37daa12d4c17914637f851470a8e";
      ] );
    ( "corpus/program-09",
      [
        "finished,finished,finished,finished,finished 33f03f62797055d18fbd6f1d47ed695c";
      ] );
    ( "corpus/program-10",
      [
        "finished,finished,finished,finished,finished b6657d6c0cd09c758428f65b16fceca5";
      ] );
    ( "corpus/program-11",
      [
        "finished,finished,finished,finished,finished f37e78cf8a759b5deca686d162e9d0d9";
      ] );
    ( "corpus/program-12",
      [
        "finished,finished,finished,finished,finished e8f62f107452b7bca548686646394c36";
      ] );
    ( "corpus/program-13",
      [
        "finished,finished,finished,finished,finished 7d5c2de5003723e512108271fbffaaf0";
      ] );
    ( "corpus/program-14",
      [
        "finished,finished,finished,finished,finished e27271044b5cc6cc0a107841acdcc44d";
      ] );
    ( "corpus/program-15",
      [
        "finished,finished,finished,finished,finished e2dce9cdf9135b25ada3c380ac9f70c7";
      ] );
    ( "corpus/program-16",
      [
        "finished,finished,finished,finished,finished 3e8827d530adff9b3d15b1e918c601ea";
      ] );
    ( "corpus/program-17",
      [
        "finished,finished,finished,finished,finished 0afacfe6bbad1f5def267f0efccd78d4";
      ] );
    ( "corpus/program-18",
      [
        "finished,finished,finished,finished,finished a08e58c387d0b0da77e4d143a5d6d892";
      ] );
    ( "corpus/program-19",
      [
        "finished,finished,finished,finished,finished bf2f1a84ce734634a49719663a6d8d13";
      ] );
    ( "corpus/program-20",
      [
        "finished,finished,finished,finished,finished 3e8827d530adff9b3d15b1e918c601ea";
      ] );
    ( "corpus/program-21",
      [
        "finished,finished,finished,finished,finished 41d03e1653194c6a682f6aef8b29f728";
      ] );
    ( "corpus/program-22",
      [
        "finished,finished,finished,finished,finished a36e60d9da9a8c8f85315f8f4b73439b";
      ] );
    ( "corpus/program-23",
      [
        "finished,finished,finished,finished,finished 3e8827d530adff9b3d15b1e918c601ea";
      ] );
    ( "corpus/program-24",
      [
        "finished,finished,finished,finished,finished 13b8ab040884d96cead11067dc57f227";
      ] );
    ( "corpus/program-25",
      [
        "finished,finished,finished,finished,finished 8bb075b041e7f3a8ffbc482a919dc91f";
      ] );
    ( "corpus/program-26",
      [
        "finished,finished,finished,finished,finished 06e01ef0611a575f02e53f5719617ab2";
      ] );
    ( "corpus/program-27",
      [
        "finished,finished,finished,finished,finished 1e3ffad3291586f6a2bb2ab268e3b4e9";
      ] );
    ( "corpus/program-28",
      [
        "finished,finished,finished,finished,finished d4badd1e585749767dfc288e7e412bdf";
      ] );
    ( "corpus/program-29",
      [
        "finished,finished,finished,finished,finished 5ef7bfb6fd6c5101da3f38f3e75b30bc";
      ] );
    ( "corpus/program-30",
      [
        "finished,finished,finished,finished,finished 6f4c1a2257f5f3ac683ff21f9d2ba3cc";
      ] );
    ( "corpus/program-31",
      [
        "finished,finished,finished,finished,finished 571336bfb356717d6d64c1e55e553b3f";
      ] );
    ( "corpus/program-32",
      [
        "finished,finished,finished,finished,finished e21d561e90a063abf25cf923fc29e2d8";
      ] );
    ( "corpus/program-33",
      [
        "finished,finished,finished,finished,finished 2f0e25f77bebbcc16d3339c420ba8078";
      ] );
    ( "corpus/program-34",
      [
        "finished,finished,finished,finished,finished b316900db22ae6fc318a5cd98d248106";
      ] );
    ( "corpus/program-35",
      [
        "finished,finished,finished,finished,finished 28b100e824241aa21b97cbf2b43a07ad";
      ] );
    ( "corpus/program-36",
      [
        "finished,finished,finished,finished,finished 0afacfe6bbad1f5def267f0efccd78d4";
      ] );
    ( "corpus/program-37",
      [
        "finished,finished,finished,finished,finished ba78c2f58879eabf428754f92149333f";
      ] );
    ( "corpus/program-38",
      [
        "finished,finished,finished,finished,finished 2dff55d7e006aeb344f6fa1c217a8d92";
      ] );
    ( "corpus/program-39",
      [
        "finished,finished,finished,finished,finished 7e53d17e819bdecbb148f68214da8158";
      ] );
    ( "corpus/racy-00",
      [
        "finished,finished,finished,finished,finished d67ec65ab5b63e602a375bad5d5692a7";
      ] );
    ( "corpus/racy-01",
      [
        "finished,finished,finished,finished,finished ff5c96a1cb4de1db9d808cfa11bcddfb";
      ] );
    ( "corpus/racy-02",
      [
        "finished,finished,finished,finished,finished f9d820cf0b5b64c3b2dfee53e0e63dab";
      ] );
    ( "corpus/racy-03",
      [
        "finished,finished,finished,finished,finished 728bee561572e3f776f158056abcd273";
      ] );
    ( "corpus/racy-04",
      [
        "finished,finished,finished,finished,finished a87e91486d811198935c5f84a51b302a";
      ] );
    ( "corpus/racy-05",
      [
        "deadlock,deadlock,deadlock,deadlock,deadlock ccbc0dfaf60bd0f57119ef2d0d8a4a76";
      ] );
    ( "corpus/racy-06",
      [
        "finished,finished,finished,finished,finished a87e91486d811198935c5f84a51b302a";
      ] );
    ( "corpus/racy-07",
      [
        "finished,finished,finished,finished,finished d36086734b93a4137aba9352ca98e12a";
      ] );
    ( "corpus/racy-08",
      [
        "finished,finished,finished,finished,finished e080e6848e5805a21bd57c8b6e758f76";
      ] );
    ( "corpus/racy-09",
      [
        "deadlock,deadlock,deadlock,deadlock,deadlock f1343a6a9d5241ef2230e59f7db4aea9";
      ] );
    ( "corpus/racy-10",
      [
        "deadlock,deadlock,deadlock,deadlock,deadlock 1bb1562d99e0a1db2055d402b8529268";
      ] );
    ( "corpus/racy-11",
      [
        "deadlock,deadlock,deadlock,deadlock,deadlock a1c12c4496827370382ff58acd044b76";
      ] );
    ( "corpus/racy-12",
      [
        "finished,finished,finished,finished,finished ac09c6b7567a22dc5d49454d851ebf8c";
      ] );
    ( "corpus/racy-13",
      [
        "deadlock,deadlock,deadlock,deadlock,deadlock 5f126f3b74c41513c61096da097bc0e3";
      ] );
    ( "corpus/racy-14",
      [
        "finished,finished,finished,finished,finished 652a1d6cde181791cf2c673e39c8ca0f";
      ] );
    ( "corpus/racy-15",
      [
        "deadlock,fault,deadlock,deadlock,deadlock a6892c3e24a4a30f266ca585ec0e3afe";
      ] );
    ( "corpus/racy-16",
      [
        "deadlock,deadlock,deadlock,deadlock,deadlock cdd0f09fe595831b58b532899bcf0a67";
      ] );
    ( "corpus/racy-17",
      [
        "deadlock,deadlock,deadlock,deadlock,deadlock 520974c3b27352220e0ab75612630194";
      ] );
    ( "corpus/racy-18",
      [
        "finished,finished,finished,finished,finished 4a70bad152d715c4dc48981f92d1672c";
      ] );
    ( "corpus/racy-19",
      [
        "finished,finished,finished,finished,finished a9b7fb4dc697fa2ee01dabdaea5d5aa3";
      ] );
    ( "corpus/racy-20",
      [
        "finished,finished,finished,finished,finished e61f87be89f5817def80dd30d8c1f907";
      ] );
    ( "corpus/racy-21",
      [
        "finished,finished,finished,finished,finished e080e6848e5805a21bd57c8b6e758f76";
      ] );
    ( "corpus/racy-22",
      [
        "finished,finished,finished,finished,finished e2baea647e25b5ec111083cdd5528ef3";
      ] );
    ( "corpus/racy-23",
      [
        "finished,finished,finished,finished,finished e61f87be89f5817def80dd30d8c1f907";
      ] );
    ( "corpus/racy-24",
      [
        "finished,finished,finished,finished,finished a9b7fb4dc697fa2ee01dabdaea5d5aa3";
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Exploration observables                                              *)
(* ------------------------------------------------------------------ *)

let explore_config nranks =
  {
    Interp.Sim.nranks;
    default_nthreads = 2;
    schedule = `Round_robin;
    max_steps = 200_000;
    entry = "main";
    record_trace = false;
    thread_level = Mpisim.Thread_level.Multiple;
  }

(* Same-block redeclaration and shadowing inside [parallel] and [for]
   bodies.  Each team member snapshots the racy [y] into a [var x] that
   shadows the forker's [x], then hides it behind a second [var x]:
   prefixes that differ only in the hidden snapshot must merge, and
   prefixes that differ in a visible one must not, so a fingerprint
   that hashes a shadowed binding, or misses a visible one, moves
   [replays] and [pruned]. *)
let shadowing_source =
  {|func main() {
  var x = rank();
  var y = 0;
  pragma omp parallel num_threads(2) {
    var x = y;
    y = y + 1;
    var x = 0;
    for i = 0 to 2 {
      var x = i;
      compute(x);
    }
  }
  var x = y;
  for i = 0 to 2 {
    var y = i;
    var x = y + 1;
    y = y + x;
  }
  MPI_Barrier();
  print(y + x);
}|}

(* Every explored input, as (name, program, ranks, branch depth, budget),
   in a fixed order.  The 3-rank depth-10 runs of the reproducers share
   one naming scheme; [deadlock-barrier]'s is listed first. *)
let explore_inputs =
  lazy
    (let window name p = (name, p, 2, 8, 2000) in
     List.map
       (fun f ->
         window ("examples/" ^ f)
           (Parser.parse_file (Filename.concat programs_dir f)))
       (example_files ())
     @ List.map
         (fun (e : Benchsuite.Reproducers.entry) ->
           window ("reproducers/" ^ e.name) (Benchsuite.Reproducers.program e))
         Benchsuite.Reproducers.all
     @ [
         ( "deadlock-barrier/ranks3-depth10",
           Benchsuite.Reproducers.load "deadlock-barrier",
           3,
           10,
           100_000 );
         ( "racy-ring/depth16",
           Benchsuite.Reproducers.load "racy-ring",
           2,
           16,
           2000 );
         ( "racy-ring/depth20",
           Benchsuite.Reproducers.load "racy-ring",
           2,
           20,
           2000 );
       ]
     @ List.filter_map
         (fun (e : Benchsuite.Reproducers.entry) ->
           if e.name = "deadlock-barrier" then None
           else
             Some
               ( e.name ^ "/ranks3-depth10",
                 Benchsuite.Reproducers.program e,
                 3,
                 10,
                 100_000 ))
         Benchsuite.Reproducers.all
     @ List.filteri
         (fun i _ -> i < 10)
         (List.map
            (fun (name, p) -> (name ^ "/depth4", p, 2, 4, 20_000))
            (numbered "corpus/racy" (Lazy.force racy_corpus)))
     @ [
         ( "shadowing/depth12",
           Parser.parse_string ~file:"shadowing" shadowing_source,
           2,
           12,
           2000 );
       ])

(* "finished/aborted/fault/deadlock/step-limit runs R replays P pruned Q
   [witness classes]" for one exploration. *)
let explore_observe (s : Interp.Explore.summary) =
  Printf.sprintf "%d/%d/%d/%d/%d runs %d replays %d pruned %d [%s]"
    s.finished s.aborted s.faulted s.deadlocked s.step_limited s.runs
    s.replays s.pruned
    (String.concat " " (List.map fst s.witnesses))

(* (input, [BFS; DPOR] observables). *)
let explore_pinned =
  [
    ( "examples/buggy_halo.hml",
      [
        "0/0/119/10/0 runs 129 replays 45 pruned 84 [deadlock fault]";
        "0/0/0/2/0 runs 3 replays 2 pruned 1 [deadlock]";
      ] );
    ( "examples/farm_racy_update.hml",
      [
        "113/0/0/0/0 runs 113 replays 37 pruned 76 [finished]";
        "7/0/0/0/0 runs 13 replays 7 pruned 6 [finished]";
      ] );
    ( "examples/farm_rank_divergence.hml",
      [
        "0/0/0/3/0 runs 3 replays 3 pruned 0 [deadlock]";
        "0/0/0/1/0 runs 1 replays 1 pruned 0 [deadlock]";
      ] );
    ( "examples/ibarrier_divergence.hml",
      [
        "7/0/0/0/0 runs 7 replays 7 pruned 0 [finished]";
        "1/0/0/0/0 runs 1 replays 1 pruned 0 [finished]";
      ] );
    ( "examples/jacobi.hml",
      [
        "5/0/0/0/0 runs 5 replays 5 pruned 0 [finished]";
        "1/0/0/0/0 runs 1 replays 1 pruned 0 [finished]";
      ] );
    ( "examples/leaky_request.hml",
      [
        "9/0/0/0/0 runs 9 replays 9 pruned 0 [finished]";
        "1/0/0/0/0 runs 1 replays 1 pruned 0 [finished]";
      ] );
    ( "examples/pipeline.hml",
      [
        "45/0/0/0/0 runs 45 replays 36 pruned 9 [finished]";
        "1/0/0/0/0 runs 1 replays 1 pruned 0 [finished]";
      ] );
    ( "examples/racy_counter.hml",
      [
        "5383/0/0/0/0 runs 5383 replays 475 pruned 4908 [finished]";
        "45/0/0/0/0 runs 74 replays 45 pruned 29 [finished]";
      ] );
    ( "examples/racy_flag.hml",
      [
        "127/0/0/0/0 runs 127 replays 67 pruned 60 [finished]";
        "8/0/0/0/0 runs 15 replays 8 pruned 7 [finished]";
      ] );
    ( "examples/racy_ring.hml",
      [
        "0/125/0/0/0 runs 125 replays 65 pruned 60 [aborted]";
        "2/4/0/0/0 runs 7 replays 6 pruned 1 [aborted finished]";
      ] );
    ( "reproducers/deadlock-barrier",
      [
        "0/0/0/8/0 runs 8 replays 8 pruned 0 [deadlock]";
        "0/0/0/1/0 runs 1 replays 1 pruned 0 [deadlock]";
      ] );
    ( "reproducers/racy-singles",
      [
        "1/195/0/0/0 runs 196 replays 68 pruned 128 [aborted finished]";
        "13/61/3/0/0 runs 105 replays 77 pruned 28 [aborted finished fault]";
      ] );
    ( "reproducers/master-vs-single",
      [
        "8/0/118/0/0 runs 126 replays 33 pruned 93 [fault finished]";
        "4/0/4/0/0 runs 12 replays 8 pruned 4 [fault finished]";
      ] );
    ( "reproducers/racy-ring",
      [
        "0/125/0/0/0 runs 125 replays 65 pruned 60 [aborted]";
        "2/4/0/0/0 runs 7 replays 6 pruned 1 [aborted finished]";
      ] );
    ( "reproducers/sections-collectives",
      [
        "45/0/2287/0/0 runs 2332 replays 172 pruned 2160 [fault finished]";
        "40/0/175/0/0 runs 276 replays 215 pruned 61 [fault finished]";
      ] );
    ( "deadlock-barrier/ranks3-depth10",
      [
        "0/0/0/1913/0 runs 1913 replays 93 pruned 1820 [deadlock]";
        "0/0/0/1/0 runs 1 replays 1 pruned 0 [deadlock]";
      ] );
    ( "racy-ring/depth16",
      [
        "0/489689/0/0/0 runs 489689 replays 1379 pruned 488310 [aborted]";
        "5/10/0/0/0 runs 18 replays 15 pruned 3 [aborted finished]";
      ] );
    ( "racy-ring/depth20",
      [
        "0/2236151/0/0/0 runs 2236151 replays 2000 pruned 2234151 [aborted]";
        "16/41/0/0/0 runs 72 replays 57 pruned 15 [aborted finished]";
      ] );
    ( "racy-singles/ranks3-depth10",
      [
        "196/312613/0/0/0 runs 312809 replays 4361 pruned 308448 [aborted finished]";
        "227/18547/798/0/0 runs 25106 replays 19572 pruned 5534 [aborted finished fault]";
      ] );
    ( "master-vs-single/ranks3-depth10",
      [
        "7816/0/244115/0/0 runs 251931 replays 1719 pruned 250212 [fault finished]";
        "23/0/62/0/0 runs 112 replays 85 pruned 27 [fault finished]";
      ] );
    ( "racy-ring/ranks3-depth10",
      [
        "0/34343/0/0/0 runs 34343 replays 1125 pruned 33218 [aborted]";
        "0/4/0/0/0 runs 5 replays 4 pruned 1 [aborted]";
      ] );
    ( "sections-collectives/ranks3-depth10",
      [
        "296170/0/6721267/0/0 runs 7017437 replays 16091 pruned 7001346 [fault finished]";
        "160/0/7361/0/0 runs 9201 replays 7521 pruned 1680 [fault finished]";
      ] );
    ( "corpus/racy-00/depth4",
      [
        "5/0/0/0/0 runs 5 replays 5 pruned 0 [finished]";
        "1/0/0/0/0 runs 1 replays 1 pruned 0 [finished]";
      ] );
    ( "corpus/racy-01/depth4",
      [
        "5/0/0/0/0 runs 5 replays 5 pruned 0 [finished]";
        "1/0/0/0/0 runs 1 replays 1 pruned 0 [finished]";
      ] );
    ( "corpus/racy-02/depth4",
      [
        "5/0/0/0/0 runs 5 replays 5 pruned 0 [finished]";
        "1/0/0/0/0 runs 1 replays 1 pruned 0 [finished]";
      ] );
    ( "corpus/racy-03/depth4",
      [
        "5/0/0/0/0 runs 5 replays 5 pruned 0 [finished]";
        "1/0/0/0/0 runs 1 replays 1 pruned 0 [finished]";
      ] );
    ( "corpus/racy-04/depth4",
      [
        "5/0/0/0/0 runs 5 replays 5 pruned 0 [finished]";
        "1/0/0/0/0 runs 1 replays 1 pruned 0 [finished]";
      ] );
    ( "corpus/racy-05/depth4",
      [
        "0/0/0/5/0 runs 5 replays 5 pruned 0 [deadlock]";
        "0/0/0/1/0 runs 1 replays 1 pruned 0 [deadlock]";
      ] );
    ( "corpus/racy-06/depth4",
      [
        "5/0/0/0/0 runs 5 replays 5 pruned 0 [finished]";
        "1/0/0/0/0 runs 1 replays 1 pruned 0 [finished]";
      ] );
    ( "corpus/racy-07/depth4",
      [
        "5/0/0/0/0 runs 5 replays 5 pruned 0 [finished]";
        "1/0/0/0/0 runs 1 replays 1 pruned 0 [finished]";
      ] );
    ( "corpus/racy-08/depth4",
      [
        "5/0/0/0/0 runs 5 replays 5 pruned 0 [finished]";
        "1/0/0/0/0 runs 1 replays 1 pruned 0 [finished]";
      ] );
    ( "corpus/racy-09/depth4",
      [
        "0/0/0/5/0 runs 5 replays 5 pruned 0 [deadlock]";
        "0/0/0/1/0 runs 1 replays 1 pruned 0 [deadlock]";
      ] );
    ( "shadowing/depth12",
      [
        "1026/0/0/0/0 runs 1026 replays 138 pruned 888 [finished]";
        "28/0/0/0/0 runs 53 replays 28 pruned 25 [finished]";
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Post-hoc overlay reports                                             *)
(* ------------------------------------------------------------------ *)

let overlay_ranks = 4

let overlay_config seed =
  {
    Interp.Sim.nranks = overlay_ranks;
    default_nthreads = 3;
    schedule = `Random seed;
    max_steps = 200_000;
    entry = "main";
    record_trace = true;
    thread_level = Mpisim.Thread_level.Multiple;
  }

(* A binary tree, then the central (Marmot-like) overlay whose root
   serves every rank (the same tree below three ranks). *)
let overlay_fanouts nranks = if nranks <= 2 then [ 2 ] else [ 2; nranks ]

(* "class rounds R messages M md5" for one report; the MD5 covers the
   whole rendered report. *)
let overlay_line (r : Mustlike.Overlay.report) =
  Printf.sprintf "%s rounds %d messages %d %s"
    (match r.Mustlike.Overlay.verdict with
    | `Match _ -> "match"
    | `Divergence _ -> "divergence")
    r.Mustlike.Overlay.rounds r.Mustlike.Overlay.messages
    (Digest.to_hex
       (Digest.string (Mustlike.Overlay.report_to_string r)))

let overlay_event ?op ?root kind : Mpisim.Engine.trace_event =
  { signature = (kind, op, root); payload = 0; event_site = "<golden>" }

(* Hand-built traces for the overlay's edge cases. *)
let overlay_traces =
  let b = overlay_event Mpisim.Coll.Barrier in
  let bcast r = overlay_event ~root:r Mpisim.Coll.Bcast in
  let allred op = overlay_event ~op Mpisim.Coll.Allreduce in
  let red op r = overlay_event ~op ~root:r Mpisim.Coll.Reduce in
  let sum = Mpisim.Op.Sum and max_ = Mpisim.Op.Max in
  [
    ("traces/empty", [| []; []; [] |]);
    ("traces/one-rank", [| [ b; bcast 0; allred sum ] |]);
    ("traces/one-rank-empty", [| [] |]);
    ("traces/agree", Array.make 5 [ b; red sum 1; allred max_; b ]);
    ("traces/ragged-short", [| [ b; b ]; [ b; b ]; [ b ]; [ b; b ] |]);
    ("traces/ragged-empty", [| []; [ b ]; [ b ] |]);
    ("traces/ragged-long", [| [ b ]; [ b ]; [ b ]; [ b; bcast 2 ] |]);
    ( "traces/layer0-op",
      [| [ b; allred sum ]; [ b; allred max_ ]; [ b; allred sum ] |] );
    ( "traces/layer1-root",
      [|
        [ b; bcast 0 ]; [ b; bcast 0 ]; [ b; bcast 1 ]; [ b; bcast 1 ];
      |] );
    ( "traces/layer2-kind",
      Array.init 8 (fun r -> [ b; (if r < 4 then b else allred sum) ]) );
    ( "traces/three-groups",
      Array.init 7 (fun r ->
          [ b; (match r mod 3 with 0 -> b | 1 -> red sum 0 | _ -> red sum 2) ]) );
  ]

(* Every overlay input, as (name, fanout, traces), in a fixed order: the
   examples and small catalog programs under selective CC on
   [overlay_ranks] ranks × 3 threads at seeds 1–3, then the hand-built
   traces, each at every fanout of [overlay_fanouts]. *)
let overlay_inputs =
  lazy
    (let programs =
       List.map
         (fun f ->
           ("examples/" ^ f, Parser.parse_file (Filename.concat programs_dir f)))
         (example_files ())
       @ List.map
           (fun (e : Benchsuite.Catalog.entry) ->
             ("catalog/" ^ e.name, e.generate_small ()))
           Benchsuite.Catalog.all
     in
     let runs =
       List.concat_map
         (fun (name, p) ->
           let inst =
             Parcoach.Instrument.instrument (Parcoach.Driver.analyze p)
               Parcoach.Instrument.Selective
           in
           List.map
             (fun seed ->
               let r = Interp.Sim.run ~config:(overlay_config seed) inst in
               ( Printf.sprintf "%s+cc/seed%d" name seed,
                 Mpisim.Engine.all_traces r.Interp.Sim.engine ))
             [ 1; 2; 3 ])
         programs
     in
     List.concat_map
       (fun (name, traces) ->
         List.map
           (fun fanout -> (Printf.sprintf "%s/fanout%d" name fanout, fanout, traces))
           (overlay_fanouts (Array.length traces)))
       (runs @ overlay_traces))

(* (input, report line). *)
let overlay_pinned =
  [
    ("examples/buggy_halo.hml+cc/seed1/fanout2",
     "match rounds 0 messages 0 8918ca5f3affd67bb1c03bce474f7a28");
    ("examples/buggy_halo.hml+cc/seed1/fanout4",
     "match rounds 0 messages 0 c767f4f69f4b30af02ed29de3e3a7856");
    ("examples/buggy_halo.hml+cc/seed2/fanout2",
     "match rounds 0 messages 0 8918ca5f3affd67bb1c03bce474f7a28");
    ("examples/buggy_halo.hml+cc/seed2/fanout4",
     "match rounds 0 messages 0 c767f4f69f4b30af02ed29de3e3a7856");
    ("examples/buggy_halo.hml+cc/seed3/fanout2",
     "match rounds 0 messages 0 8918ca5f3affd67bb1c03bce474f7a28");
    ("examples/buggy_halo.hml+cc/seed3/fanout4",
     "match rounds 0 messages 0 c767f4f69f4b30af02ed29de3e3a7856");
    ("examples/farm_racy_update.hml+cc/seed1/fanout2",
     "match rounds 2 messages 12 1305dc80693d9c7810eecb7f8f8879c1");
    ("examples/farm_racy_update.hml+cc/seed1/fanout4",
     "match rounds 2 messages 8 780aaae6c4be21dfe50b1e7444aa1fd3");
    ("examples/farm_racy_update.hml+cc/seed2/fanout2",
     "match rounds 2 messages 12 1305dc80693d9c7810eecb7f8f8879c1");
    ("examples/farm_racy_update.hml+cc/seed2/fanout4",
     "match rounds 2 messages 8 780aaae6c4be21dfe50b1e7444aa1fd3");
    ("examples/farm_racy_update.hml+cc/seed3/fanout2",
     "match rounds 2 messages 12 1305dc80693d9c7810eecb7f8f8879c1");
    ("examples/farm_racy_update.hml+cc/seed3/fanout4",
     "match rounds 2 messages 8 780aaae6c4be21dfe50b1e7444aa1fd3");
    ("examples/farm_rank_divergence.hml+cc/seed1/fanout2",
     "match rounds 3 messages 18 53958e5b4295cb2a50b5fcbf1c27ce60");
    ("examples/farm_rank_divergence.hml+cc/seed1/fanout4",
     "match rounds 3 messages 12 18271a5cc5cebe8f83f651fbe3dc12f4");
    ("examples/farm_rank_divergence.hml+cc/seed2/fanout2",
     "match rounds 3 messages 18 53958e5b4295cb2a50b5fcbf1c27ce60");
    ("examples/farm_rank_divergence.hml+cc/seed2/fanout4",
     "match rounds 3 messages 12 18271a5cc5cebe8f83f651fbe3dc12f4");
    ("examples/farm_rank_divergence.hml+cc/seed3/fanout2",
     "match rounds 3 messages 18 53958e5b4295cb2a50b5fcbf1c27ce60");
    ("examples/farm_rank_divergence.hml+cc/seed3/fanout4",
     "match rounds 3 messages 12 18271a5cc5cebe8f83f651fbe3dc12f4");
    ("examples/ibarrier_divergence.hml+cc/seed1/fanout2",
     "match rounds 1 messages 6 f0c924cf976bd91c88440bae62b251bd");
    ("examples/ibarrier_divergence.hml+cc/seed1/fanout4",
     "match rounds 1 messages 4 952a46a2b4e392c07f03d3763a9bcd4e");
    ("examples/ibarrier_divergence.hml+cc/seed2/fanout2",
     "match rounds 1 messages 6 f0c924cf976bd91c88440bae62b251bd");
    ("examples/ibarrier_divergence.hml+cc/seed2/fanout4",
     "match rounds 1 messages 4 952a46a2b4e392c07f03d3763a9bcd4e");
    ("examples/ibarrier_divergence.hml+cc/seed3/fanout2",
     "match rounds 1 messages 6 f0c924cf976bd91c88440bae62b251bd");
    ("examples/ibarrier_divergence.hml+cc/seed3/fanout4",
     "match rounds 1 messages 4 952a46a2b4e392c07f03d3763a9bcd4e");
    ("examples/jacobi.hml+cc/seed1/fanout2",
     "match rounds 11 messages 66 e30ed4e558dfb63a0d478580b0034ec8");
    ("examples/jacobi.hml+cc/seed1/fanout4",
     "match rounds 11 messages 44 b75fe25515f0880b44c3a6939f73bd5d");
    ("examples/jacobi.hml+cc/seed2/fanout2",
     "match rounds 11 messages 66 e30ed4e558dfb63a0d478580b0034ec8");
    ("examples/jacobi.hml+cc/seed2/fanout4",
     "match rounds 11 messages 44 b75fe25515f0880b44c3a6939f73bd5d");
    ("examples/jacobi.hml+cc/seed3/fanout2",
     "match rounds 11 messages 66 e30ed4e558dfb63a0d478580b0034ec8");
    ("examples/jacobi.hml+cc/seed3/fanout4",
     "match rounds 11 messages 44 b75fe25515f0880b44c3a6939f73bd5d");
    ("examples/leaky_request.hml+cc/seed1/fanout2",
     "match rounds 1 messages 6 f0c924cf976bd91c88440bae62b251bd");
    ("examples/leaky_request.hml+cc/seed1/fanout4",
     "match rounds 1 messages 4 952a46a2b4e392c07f03d3763a9bcd4e");
    ("examples/leaky_request.hml+cc/seed2/fanout2",
     "match rounds 1 messages 6 f0c924cf976bd91c88440bae62b251bd");
    ("examples/leaky_request.hml+cc/seed2/fanout4",
     "match rounds 1 messages 4 952a46a2b4e392c07f03d3763a9bcd4e");
    ("examples/leaky_request.hml+cc/seed3/fanout2",
     "match rounds 1 messages 6 f0c924cf976bd91c88440bae62b251bd");
    ("examples/leaky_request.hml+cc/seed3/fanout4",
     "match rounds 1 messages 4 952a46a2b4e392c07f03d3763a9bcd4e");
    ("examples/pipeline.hml+cc/seed1/fanout2",
     "match rounds 6 messages 36 d9ae5ff09935074252a5c4f1de0fcafb");
    ("examples/pipeline.hml+cc/seed1/fanout4",
     "match rounds 6 messages 24 1a7604dba78692cdbb589f3fa37c41d4");
    ("examples/pipeline.hml+cc/seed2/fanout2",
     "match rounds 6 messages 36 d9ae5ff09935074252a5c4f1de0fcafb");
    ("examples/pipeline.hml+cc/seed2/fanout4",
     "match rounds 6 messages 24 1a7604dba78692cdbb589f3fa37c41d4");
    ("examples/pipeline.hml+cc/seed3/fanout2",
     "match rounds 6 messages 36 d9ae5ff09935074252a5c4f1de0fcafb");
    ("examples/pipeline.hml+cc/seed3/fanout4",
     "match rounds 6 messages 24 1a7604dba78692cdbb589f3fa37c41d4");
    ("examples/racy_counter.hml+cc/seed1/fanout2",
     "match rounds 1 messages 6 f0c924cf976bd91c88440bae62b251bd");
    ("examples/racy_counter.hml+cc/seed1/fanout4",
     "match rounds 1 messages 4 952a46a2b4e392c07f03d3763a9bcd4e");
    ("examples/racy_counter.hml+cc/seed2/fanout2",
     "match rounds 1 messages 6 f0c924cf976bd91c88440bae62b251bd");
    ("examples/racy_counter.hml+cc/seed2/fanout4",
     "match rounds 1 messages 4 952a46a2b4e392c07f03d3763a9bcd4e");
    ("examples/racy_counter.hml+cc/seed3/fanout2",
     "match rounds 1 messages 6 f0c924cf976bd91c88440bae62b251bd");
    ("examples/racy_counter.hml+cc/seed3/fanout4",
     "match rounds 1 messages 4 952a46a2b4e392c07f03d3763a9bcd4e");
    ("examples/racy_flag.hml+cc/seed1/fanout2",
     "match rounds 0 messages 0 8918ca5f3affd67bb1c03bce474f7a28");
    ("examples/racy_flag.hml+cc/seed1/fanout4",
     "match rounds 0 messages 0 c767f4f69f4b30af02ed29de3e3a7856");
    ("examples/racy_flag.hml+cc/seed2/fanout2",
     "match rounds 0 messages 0 8918ca5f3affd67bb1c03bce474f7a28");
    ("examples/racy_flag.hml+cc/seed2/fanout4",
     "match rounds 0 messages 0 c767f4f69f4b30af02ed29de3e3a7856");
    ("examples/racy_flag.hml+cc/seed3/fanout2",
     "match rounds 0 messages 0 8918ca5f3affd67bb1c03bce474f7a28");
    ("examples/racy_flag.hml+cc/seed3/fanout4",
     "match rounds 0 messages 0 c767f4f69f4b30af02ed29de3e3a7856");
    ("examples/racy_ring.hml+cc/seed1/fanout2",
     "match rounds 0 messages 0 8918ca5f3affd67bb1c03bce474f7a28");
    ("examples/racy_ring.hml+cc/seed1/fanout4",
     "match rounds 0 messages 0 c767f4f69f4b30af02ed29de3e3a7856");
    ("examples/racy_ring.hml+cc/seed2/fanout2",
     "match rounds 0 messages 0 8918ca5f3affd67bb1c03bce474f7a28");
    ("examples/racy_ring.hml+cc/seed2/fanout4",
     "match rounds 0 messages 0 c767f4f69f4b30af02ed29de3e3a7856");
    ("examples/racy_ring.hml+cc/seed3/fanout2",
     "match rounds 1 messages 6 f0c924cf976bd91c88440bae62b251bd");
    ("examples/racy_ring.hml+cc/seed3/fanout4",
     "match rounds 1 messages 4 952a46a2b4e392c07f03d3763a9bcd4e");
    ("catalog/BT-MZ+cc/seed1/fanout2",
     "match rounds 10 messages 60 cadcf12941d57660567e07f4a7ee0e3e");
    ("catalog/BT-MZ+cc/seed1/fanout4",
     "match rounds 10 messages 40 a6196968bdfea04bdca986829a6d0eea");
    ("catalog/BT-MZ+cc/seed2/fanout2",
     "match rounds 10 messages 60 cadcf12941d57660567e07f4a7ee0e3e");
    ("catalog/BT-MZ+cc/seed2/fanout4",
     "match rounds 10 messages 40 a6196968bdfea04bdca986829a6d0eea");
    ("catalog/BT-MZ+cc/seed3/fanout2",
     "match rounds 10 messages 60 cadcf12941d57660567e07f4a7ee0e3e");
    ("catalog/BT-MZ+cc/seed3/fanout4",
     "match rounds 10 messages 40 a6196968bdfea04bdca986829a6d0eea");
    ("catalog/SP-MZ+cc/seed1/fanout2",
     "match rounds 10 messages 60 cadcf12941d57660567e07f4a7ee0e3e");
    ("catalog/SP-MZ+cc/seed1/fanout4",
     "match rounds 10 messages 40 a6196968bdfea04bdca986829a6d0eea");
    ("catalog/SP-MZ+cc/seed2/fanout2",
     "match rounds 10 messages 60 cadcf12941d57660567e07f4a7ee0e3e");
    ("catalog/SP-MZ+cc/seed2/fanout4",
     "match rounds 10 messages 40 a6196968bdfea04bdca986829a6d0eea");
    ("catalog/SP-MZ+cc/seed3/fanout2",
     "match rounds 10 messages 60 cadcf12941d57660567e07f4a7ee0e3e");
    ("catalog/SP-MZ+cc/seed3/fanout4",
     "match rounds 10 messages 40 a6196968bdfea04bdca986829a6d0eea");
    ("catalog/LU-MZ+cc/seed1/fanout2",
     "match rounds 10 messages 60 cadcf12941d57660567e07f4a7ee0e3e");
    ("catalog/LU-MZ+cc/seed1/fanout4",
     "match rounds 10 messages 40 a6196968bdfea04bdca986829a6d0eea");
    ("catalog/LU-MZ+cc/seed2/fanout2",
     "match rounds 10 messages 60 cadcf12941d57660567e07f4a7ee0e3e");
    ("catalog/LU-MZ+cc/seed2/fanout4",
     "match rounds 10 messages 40 a6196968bdfea04bdca986829a6d0eea");
    ("catalog/LU-MZ+cc/seed3/fanout2",
     "match rounds 10 messages 60 cadcf12941d57660567e07f4a7ee0e3e");
    ("catalog/LU-MZ+cc/seed3/fanout4",
     "match rounds 10 messages 40 a6196968bdfea04bdca986829a6d0eea");
    ("catalog/EPCC suite+cc/seed1/fanout2",
     "match rounds 17 messages 102 fb658191328dd8ed1ee0281c5d51e37b");
    ("catalog/EPCC suite+cc/seed1/fanout4",
     "match rounds 17 messages 68 0432cbe15ddc3c9505790503af3b43a0");
    ("catalog/EPCC suite+cc/seed2/fanout2",
     "match rounds 17 messages 102 fb658191328dd8ed1ee0281c5d51e37b");
    ("catalog/EPCC suite+cc/seed2/fanout4",
     "match rounds 17 messages 68 0432cbe15ddc3c9505790503af3b43a0");
    ("catalog/EPCC suite+cc/seed3/fanout2",
     "match rounds 17 messages 102 fb658191328dd8ed1ee0281c5d51e37b");
    ("catalog/EPCC suite+cc/seed3/fanout4",
     "match rounds 17 messages 68 0432cbe15ddc3c9505790503af3b43a0");
    ("catalog/HERA+cc/seed1/fanout2",
     "match rounds 66 messages 396 5f76ea4e34c5a4e24ee8812f5b6f9da4");
    ("catalog/HERA+cc/seed1/fanout4",
     "match rounds 66 messages 264 2c9af59bbf19868209e742e276d3f343");
    ("catalog/HERA+cc/seed2/fanout2",
     "match rounds 66 messages 396 5f76ea4e34c5a4e24ee8812f5b6f9da4");
    ("catalog/HERA+cc/seed2/fanout4",
     "match rounds 66 messages 264 2c9af59bbf19868209e742e276d3f343");
    ("catalog/HERA+cc/seed3/fanout2",
     "match rounds 66 messages 396 5f76ea4e34c5a4e24ee8812f5b6f9da4");
    ("catalog/HERA+cc/seed3/fanout4",
     "match rounds 66 messages 264 2c9af59bbf19868209e742e276d3f343");
    ("traces/empty/fanout2",
     "match rounds 0 messages 0 8918ca5f3affd67bb1c03bce474f7a28");
    ("traces/empty/fanout3",
     "match rounds 0 messages 0 fd3f1e7faf97291dbfa3175f6ff64f70");
    ("traces/one-rank/fanout2",
     "match rounds 3 messages 3 2b738843d0184e06675243ce1bd5ecfe");
    ("traces/one-rank-empty/fanout2",
     "match rounds 0 messages 0 730fef435544a838c4574e2ffc1097de");
    ("traces/agree/fanout2",
     "match rounds 4 messages 40 74bcd8a880c8fdc772b409c6f18e8bbd");
    ("traces/agree/fanout5",
     "match rounds 4 messages 20 33099221fe3a93f3279c323ae1470e19");
    ("traces/ragged-short/fanout2",
     "divergence rounds 2 messages 10 337e0b787d860f089e9bdd13c09d9271");
    ("traces/ragged-short/fanout4",
     "divergence rounds 2 messages 8 bddc794642922bbd33e863f458486551");
    ("traces/ragged-empty/fanout2",
     "divergence rounds 1 messages 3 00915877ff913fe44d131f4ebaf20144");
    ("traces/ragged-empty/fanout3",
     "divergence rounds 1 messages 3 4499ee94b717f3fe948244df2ad6c7eb");
    ("traces/ragged-long/fanout2",
     "divergence rounds 2 messages 10 0e6c7ecdd8a0485ae208759a9f51171c");
    ("traces/ragged-long/fanout4",
     "divergence rounds 2 messages 8 a728d13aa8c65a5d8a36ea66ef29e4d2");
    ("traces/layer0-op/fanout2",
     "divergence rounds 2 messages 8 941d30026768498aa7463082742d93d8");
    ("traces/layer0-op/fanout3",
     "divergence rounds 2 messages 6 88b5da40ac3be19bc00304a4e3b923c6");
    ("traces/layer1-root/fanout2",
     "divergence rounds 2 messages 12 456db70ea65aa3179fe0202710c7340c");
    ("traces/layer1-root/fanout4",
     "divergence rounds 2 messages 8 135edd8f55c08798d67832b1959385d0");
    ("traces/layer2-kind/fanout2",
     "divergence rounds 2 messages 28 79c2842ebbbba50cd0c96a9ecd0d2e8f");
    ("traces/layer2-kind/fanout8",
     "divergence rounds 2 messages 16 8240e5bfebc3484a39317e109b766931");
    ("traces/three-groups/fanout2",
     "divergence rounds 2 messages 20 11d014095f7db071fdb50cbc39dcdae1");
    ("traces/three-groups/fanout7",
     "divergence rounds 2 messages 14 a7777e1a3891d5f8ac7719e1d217597b");
  ]

let suite =
  [
    ( "golden.reports",
      [
        Alcotest.test_case "every pinned input exists" `Quick (fun () ->
            Alcotest.(check (list string))
              "inputs" (List.map fst pinned)
              (List.map fst (Lazy.force inputs)));
        Alcotest.test_case "reports match their digests" `Quick (fun () ->
            let mismatches =
              List.filter_map
                (fun (name, render) ->
                  match List.assoc_opt name pinned with
                  | None -> None
                  | Some d ->
                      let d' = digest render in
                      if d = d' then None
                      else Some (Printf.sprintf "%s: %s, pinned %s" name d' d))
                (Lazy.force inputs)
            in
            Alcotest.(check (list string)) "mismatches" [] mismatches);
      ] );
    ( "golden.schedules",
      [
        Alcotest.test_case "every scheduled input exists" `Quick (fun () ->
            Alcotest.(check (list string))
              "inputs" (List.map fst sched_pinned)
              (List.map (fun (name, _, _) -> name) (Lazy.force sched_inputs)));
        Alcotest.test_case "the generated corpus is unchanged" `Quick
          (fun () ->
            Alcotest.(check string)
              "corpus digest" corpus_digest
              (Digest.to_hex (Digest.string (corpus_text ()))));
        Alcotest.test_case "runs match their pins" `Quick (fun () ->
            let mismatches =
              List.filter_map
                (fun (name, p, shape) ->
                  match List.assoc_opt name sched_pinned with
                  | None -> None
                  | Some pins ->
                      let got = sched_lines p shape in
                      if got = pins then None
                      else
                        Some
                          (Printf.sprintf "%s: [%s], pinned [%s]" name
                             (String.concat "; " got) (String.concat "; " pins)))
                (Lazy.force sched_inputs)
            in
            Alcotest.(check (list string)) "mismatches" [] mismatches);
      ] );
    ( "golden.explore",
      [
        Alcotest.test_case "every explored input exists" `Quick (fun () ->
            Alcotest.(check (list string))
              "inputs"
              (List.map fst explore_pinned)
              (List.map (fun (name, _, _, _, _) -> name)
                 (Lazy.force explore_inputs)));
        Alcotest.test_case "BFS and DPOR match their pins" `Quick (fun () ->
            let mismatches =
              List.filter_map
                (fun (name, p, nranks, branch_depth, budget) ->
                  match List.assoc_opt name explore_pinned with
                  | None -> None
                  | Some pins ->
                      let config = explore_config nranks in
                      let got =
                        [
                          explore_observe
                            (Interp.Explore.outcomes ~branch_depth ~budget
                               ~config p);
                          explore_observe
                            (Interp.Explore.outcomes_dpor ~branch_depth ~budget
                               ~config p);
                        ]
                      in
                      if got = pins then None
                      else
                        Some
                          (Printf.sprintf "%s: [%s], pinned [%s]" name
                             (String.concat "; " got) (String.concat "; " pins)))
                (Lazy.force explore_inputs)
            in
            Alcotest.(check (list string)) "mismatches" [] mismatches);
      ] );
    ( "golden.overlay",
      [
        Alcotest.test_case "every overlay input exists" `Quick (fun () ->
            Alcotest.(check (list string))
              "inputs" (List.map fst overlay_pinned)
              (List.map (fun (name, _, _) -> name) (Lazy.force overlay_inputs)));
        Alcotest.test_case "reports match their pins" `Quick (fun () ->
            let mismatches =
              List.concat_map
                (fun (name, fanout, traces) ->
                  match List.assoc_opt name overlay_pinned with
                  | None -> []
                  | Some pin ->
                      List.filter_map
                        (fun (checker, report) ->
                          let got = overlay_line report in
                          if got = pin then None
                          else
                            Some
                              (Printf.sprintf "%s (%s): %s, pinned %s" name
                                 checker got pin))
                        [
                          ("post-hoc", Mustlike.Overlay.check ~fanout traces);
                          ( "stream",
                            fst (Test_stream.stream_traces ~fanout traces) );
                        ])
                (Lazy.force overlay_inputs)
            in
            Alcotest.(check (list string)) "mismatches" [] mismatches);
      ] );
  ]
