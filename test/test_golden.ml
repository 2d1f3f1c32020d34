(** Pinned static reports.  For every shipped program (the sample [.hml]
    files, the reproducers, the catalog at its three sizes) and for the
    injector mutants of the [compile] benchmark workload at seed 1, the
    MD5 of what

    {v parcoachc --json --taint-filter --interprocedural --races --requests --instrument selective FILE v}

    prints is recorded here: the JSON report, the instrumented program
    and the check counts.  A change to any static pass that moves a
    warning, a location, a CC site or a byte of the rendering fails
    these tests. *)

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

(* Every pinned input, as (name, source), in a fixed order. *)
let inputs =
  lazy
    (let examples =
       Sys.readdir programs_dir |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".hml")
       |> List.sort String.compare
       |> List.map (fun f ->
              ("examples/" ^ f, read (Filename.concat programs_dir f)))
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
     examples @ reproducers @ catalog @ mutants ~seed:1)

let options =
  {
    Parcoach.Driver.default_options with
    taint_filter = true;
    interprocedural = true;
    races = true;
    requests = true;
  }

(* The standard output of the parcoachc command above, on [src] read
   from a file named [file]. *)
let report ~file src =
  let invalid issues = Parcoach.Json_report.invalid_to_string issues ^ "\n" in
  match
    Validate.catch_syntax_error (fun () -> Parser.parse_string ~file src)
  with
  | Error issue -> invalid [ issue ]
  | Ok program ->
      let issues = Validate.check_program program in
      if not (Validate.is_valid issues) then invalid issues
      else
        let report = Parcoach.Driver.analyze ~options program in
        let mode = Parcoach.Instrument.Selective in
        let ccs, counters, returns =
          Parcoach.Instrument.check_counts report mode
        in
        String.concat ""
          [
            Parcoach.Json_report.to_string ~issues report;
            "\n";
            Pretty.program_to_string
              (Parcoach.Instrument.instrument report mode);
            Printf.sprintf "inserted checks: %d CC, %d counters, %d return checks\n"
              ccs counters returns;
          ]

let digest ~file src = Digest.to_hex (Digest.string (report ~file src))

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
                (fun (name, src) ->
                  match List.assoc_opt name pinned with
                  | None -> None
                  | Some d ->
                      let d' = digest ~file:name src in
                      if d = d' then None
                      else Some (Printf.sprintf "%s: %s, pinned %s" name d' d))
                (Lazy.force inputs)
            in
            Alcotest.(check (list string)) "mismatches" [] mismatches);
      ] );
  ]
