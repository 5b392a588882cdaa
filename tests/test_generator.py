"""Behavioural tests of the test generation procedure on many machines."""

from __future__ import annotations

import hashlib

import pytest

from repro.benchmarks import circuit_names, load_circuit
from repro.benchmarks.synthetic import synthetic_machine
from repro.core.config import GeneratorConfig
from repro.core.coverage import verify_test_set
from repro.core.generator import generate_tests
from repro.core.testset import SegmentKind
from repro.errors import GenerationError

SMALL = sorted(circuit_names("small"))


class TestInvariantsAcrossCircuits:
    @pytest.mark.parametrize("name", SMALL)
    def test_every_transition_covered_and_verified(self, name):
        table = load_circuit(name)
        result = generate_tests(table)
        report = verify_test_set(table, result.test_set)
        assert report.is_complete, report.missing

    @pytest.mark.parametrize("name", SMALL)
    def test_fewer_tests_than_transitions(self, name):
        table = load_circuit(name)
        result = generate_tests(table)
        assert result.n_tests <= table.n_transitions

    @pytest.mark.parametrize("name", SMALL)
    def test_each_transition_credited_exactly_once(self, name):
        table = load_circuit(name)
        result = generate_tests(table)
        credited = [key for test in result.test_set for key in test.tested]
        assert len(credited) == table.n_transitions
        assert len(set(credited)) == table.n_transitions

    @pytest.mark.parametrize("name", SMALL)
    def test_tests_structurally_consistent(self, name):
        table = load_circuit(name)
        result = generate_tests(table)
        for test in result.test_set:
            test.check_consistency(table)

    @pytest.mark.parametrize("name", ["bbtas", "dk512", "lion", "train11"])
    def test_deterministic(self, name):
        table = load_circuit(name)
        first = generate_tests(table)
        second = generate_tests(table)
        assert [t.inputs for t in first.test_set] == [t.inputs for t in second.test_set]


class TestTransferBound:
    def test_no_transfer_mode_has_no_transfer_segments(self):
        table = load_circuit("dk27")
        config = GeneratorConfig(max_transfer_length=0)
        result = generate_tests(table, config)
        kinds = {
            segment.kind for test in result.test_set for segment in test.segments
        }
        assert SegmentKind.TRANSFER not in kinds
        assert verify_test_set(table, result.test_set).is_complete

    def test_no_transfer_needs_at_least_as_many_tests(self):
        """Table 8's message: dropping transfers shortens chains."""
        table = load_circuit("dk27")
        with_transfer = generate_tests(table, GeneratorConfig(max_transfer_length=1))
        without = generate_tests(table, GeneratorConfig(max_transfer_length=0))
        assert without.n_tests >= with_transfer.n_tests
        assert without.total_length <= with_transfer.total_length

    def test_longer_transfer_bound_accepted(self):
        table = load_circuit("bbtas")
        result = generate_tests(table, GeneratorConfig(max_transfer_length=2))
        assert verify_test_set(table, result.test_set).is_complete


class TestUioBound:
    def test_zero_length_gives_per_transition_tests(self, lion):
        result = generate_tests(lion, GeneratorConfig(max_uio_length=0))
        assert result.n_tests == lion.n_transitions
        assert all(test.length == 1 for test in result.test_set)

    def test_longer_bound_never_loses_coverage(self, lion):
        for bound in range(0, 5):
            result = generate_tests(lion, GeneratorConfig(max_uio_length=bound))
            assert verify_test_set(lion, result.test_set).is_complete

    def test_uio_count_monotone_in_bound(self, lion):
        from repro.uio.search import compute_uio_table

        found = [compute_uio_table(lion, bound).n_found for bound in range(4)]
        assert found == sorted(found)


class TestPostponeRule:
    def test_postpone_off_still_covers(self, lion):
        config = GeneratorConfig(postpone_no_uio_starts=False)
        result = generate_tests(lion, config)
        assert verify_test_set(lion, result.test_set).is_complete

    def test_postpone_on_defers_uio_less_starts(self, lion):
        """With the rule on, no first-pass test starts with a transition to a
        UIO-less state unless nothing else remains (the paper's τ5..τ8)."""
        result = generate_tests(lion)
        # τ2 starts with 1 --11--> 0 whose next state 0 HAS a UIO; the four
        # length-1 leftovers all end in state 3 (no UIO).
        leftovers = [t for t in result.test_set if t.length == 1]
        assert len(leftovers) == 4
        assert all(t.final_state == 3 for t in leftovers)


class TestScanRatio:
    def test_ratio_scales_scan_contribution(self, lion_result):
        cycles_1 = lion_result.test_set.clock_cycles(scan_ratio=1)
        cycles_3 = lion_result.test_set.clock_cycles(scan_ratio=3)
        scan_part = lion_result.test_set.n_state_variables * (
            lion_result.n_tests + 1
        )
        assert cycles_3 - cycles_1 == 2 * scan_part

    def test_bad_ratio_rejected(self, lion_result):
        with pytest.raises(GenerationError):
            lion_result.test_set.clock_cycles(scan_ratio=0)


class TestIncidentalCredit:
    def test_incidental_mode_still_covers_everything(self):
        table = load_circuit("dk512")
        config = GeneratorConfig(credit_incidental=True)
        result = generate_tests(table, config)
        exercised = result.test_set.covered_transitions() | set(
            result.incidental_credits
        )
        assert len(exercised) == table.n_transitions

    def test_incidental_reduces_or_equals_test_count(self):
        table = load_circuit("dk512")
        plain = generate_tests(table)
        credited = generate_tests(table, GeneratorConfig(credit_incidental=True))
        assert credited.n_tests <= plain.n_tests

    def test_incidental_credits_reported(self):
        table = load_circuit("dk512")
        result = generate_tests(table, GeneratorConfig(credit_incidental=True))
        # The strict checker treats incidental credits as exercised-only.
        report = verify_test_set(table, result.test_set)
        assert set(result.incidental_credits) <= report.exercised


class TestSingleStateMachine:
    def test_one_state_machine(self):
        from repro.fsm.builders import StateTableBuilder

        builder = StateTableBuilder(1, 1)
        builder.add("only", 0, "only", 0)
        builder.add("only", 1, "only", 1)
        table = builder.build()
        result = generate_tests(table)
        report = verify_test_set(table, result.test_set)
        assert report.is_complete


# ------------------------------------------------------------ pinned output


def _generation_digest(result) -> str:
    """SHA-256 over everything a generation run decides: the UIO table, each
    test's text, segments and credited transitions, and the cycle count."""
    uio = result.uio_table
    payload = [
        uio.max_length,
        [
            (seq.state, seq.inputs, seq.final_state)
            for _, seq in sorted(uio.sequences.items())
        ],
        sorted(uio.budget_exhausted),
        [
            (
                str(test),
                [(seg.kind.value, seg.start_state, seg.inputs) for seg in test.segments],
                test.tested,
            )
            for test in result.test_set
        ],
        result.clock_cycles(),
        result.incidental_credits,
        sorted(result.partial_sets_used),
    ]
    return hashlib.sha256(repr(payload).encode()).hexdigest()


#: Digests of the default configuration on every registry circuit.
PINNED_DEFAULT = {
    "bbara": "89414a64c4860bbe9fa1c2c32e797051ac0283df558d14cc92fff67791dff8ab",
    "bbsse": "3bf067af1478d70809f8de6dcfd2c6cf91960a82554dada2a45dd0262ea35955",
    "bbtas": "f49af029f85003dce8cff634673a9ca62310378d4a3aa9e49768fdb5a2449c33",
    "beecount": "0892de394d09ad964132314eb0719fa864d92d68892e674f4ae4a86e31e37962",
    "cse": "6cc9c4f8e1b16f7157166e9ada0da5a5084e77417157e8b8f4fb6cdf275ccf5b",
    "dk14": "cecbc486413cd24f1ff44ca66a7794bb81cde02370807f1ead3963cc4dabc677",
    "dk15": "7f5dc4a1674de6d08d2d629b4eaf3144a3bb44512017cc638d8a98a7134757fc",
    "dk16": "cd562ea5e6e348883c8d354d5fefa7f673ad5b6523414a3f646bf09eb475dbfc",
    "dk17": "17db1f7c99adc63e9874cd6629c593208c416e9f2b5a63e565f932e4034a8ef4",
    "dk27": "420dc918a821047aea90bf07212cf6dbac68978441efba141e2ff5bde6907b9e",
    "dk512": "ca0f8d42072a20954351d956edcdca70a39b77304b5ccd178cb384de3301b117",
    "dvram": "f7cc7cceca32011a74f23f674b3f99e9c9d9febee72b874d3c0ea422e39651f3",
    "ex2": "9a882014a1866152bd91669dc69eeb9b7cc8a95fabbd9c1153152042209130b1",
    "ex3": "284f3dfd92d64b6650eb832e64c16d0ca0acc8c6aa1c007c726cef900226f834",
    "ex4": "e1d8a8f047227d550a3592df0a4a52df02534224fe4dad6fbfca132bfac12ad3",
    "ex5": "6f0837740162643cd5ed322b47da59639c2488290b0c8e23a6ec35cfea336f0b",
    "ex6": "d4a23aae01a7b589410c0bcd269001eed19f3b8b7856feb9b3f09dd5f973a166",
    "ex7": "5d8abd6889df46fc49330fe7f2efb9ad46dc0b352fdadd088882c5a8e97a793b",
    "fetch": "1f82dd9dbc63c00867d20aa8a163507dd187f66d5197d9d68c620650047a28a2",
    "keyb": "690a6606760ce3c8469607ac113e8198f69191068a8ebba4db61ed3aaa4ab241",
    "lion": "9b74c2c384d5f67cdb9116287cda5dce29c496ad18f42d8088d928283bc3a944",
    "lion9": "b24c79119b625d2e275822d583c007195fc028d95f7a96e821358bb2539d44fb",
    "log": "28bb2333f1882a363f72b1bc8bf7cb0fef554693e2695910db4a889f645cfc42",
    "mark1": "4ff74037b98bbffc049d5a6f960c4ded43a5bc912bc0f167614cadaa8b0ce748",
    "mc": "4ad8efacf682c3e6f511007d958fd49ab23297ee5e087f23559c112372d2d2b5",
    "nucpwr": "ed3c1bf25b3e4001fe24174623f1a55f6cbf3b9d0166ca99cd317572c41910fe",
    "opus": "27a8c199222c67671c42fca89f5cb340b837d7d6211d2634df79fa7f6f32222a",
    "rie": "1d733fbde0a4c164f01267e4c63e2de8d7e2b5d31638db1071726a5ad560aa79",
    "shiftreg": "2a6e641a5a2d20717b5f9f13388d13ef93bb11369525a6dcf05466d2e88d79e9",
    "tav": "2f80aa25ff07a9dde57cfe626cc957c9850d22dd2d37d40b31b11d368caacbb7",
    "train11": "f9da75919285426329bc5143f8c32e4e210f28d349dde3a94f21e45ef1ba98fc",
}

#: Digests of the extension branches on the small tier.
PINNED_EXTENSIONS = {
    "transfer2": {
        "bbtas": "0027006c23d7fbef972cc884f69222b23d0099dcb6c648192d3bc2f4534f5e97",
        "beecount": "b1cfd79d8e4652a6ffc2a1384c25eff89b5b7606c94f80e8781d21928eecef79",
        "dk14": "817195dad9b8bdd02df528ad9e33cbf3bb9b6a2bb685c240a473805b56c0ecaa",
        "dk15": "7f5dc4a1674de6d08d2d629b4eaf3144a3bb44512017cc638d8a98a7134757fc",
        "dk16": "885b69de1c29b914af97853270040f39842cec2b546c380eae1c02fb08977625",
        "dk17": "8766c57c6ee5b958b62fcf347e57c6efc8952543e6ccfea6561b8e68fb1a53a9",
        "dk27": "420dc918a821047aea90bf07212cf6dbac68978441efba141e2ff5bde6907b9e",
        "dk512": "4a8d2adc174c97a1417bc599ae9bf38d44931dd23baaeb8af9c721e764f8260f",
        "ex2": "5d42841377a62e97fef429830401d1ec576aabec8b91eeeb8ad2f783f034e821",
        "ex3": "6634987719bdfad95c6c07b14489f773b12ae5f7b9cac93b30ad4fe73ad4e1f4",
        "ex5": "c6deeb074b06031c86faa8ed28c7b1929d72038c030d3059179043e982622d4e",
        "ex7": "f07565f1d4640677637697bac52e9b76aff88c5ed59ffec09297ecf17cd2d062",
        "lion": "9b74c2c384d5f67cdb9116287cda5dce29c496ad18f42d8088d928283bc3a944",
        "lion9": "2d8b4eeb710fa8ab68f623eb1b41389f659428dbfd588200b176f96ec28bbb43",
        "mc": "4ad8efacf682c3e6f511007d958fd49ab23297ee5e087f23559c112372d2d2b5",
        "shiftreg": "e113946e62169c12e3b5eeae46d30966c6fe36d596e99d76ecfb6c31b3c35e5e",
        "tav": "2f80aa25ff07a9dde57cfe626cc957c9850d22dd2d37d40b31b11d368caacbb7",
        "train11": "59c14b1e40efe21b0cd1ac8cbac7fa50093815ab0f8f254012080a06ee5a80a5",
    },
    "partial": {
        "bbtas": "f49af029f85003dce8cff634673a9ca62310378d4a3aa9e49768fdb5a2449c33",
        "beecount": "0892de394d09ad964132314eb0719fa864d92d68892e674f4ae4a86e31e37962",
        "dk14": "cecbc486413cd24f1ff44ca66a7794bb81cde02370807f1ead3963cc4dabc677",
        "dk15": "7f5dc4a1674de6d08d2d629b4eaf3144a3bb44512017cc638d8a98a7134757fc",
        "dk16": "cd562ea5e6e348883c8d354d5fefa7f673ad5b6523414a3f646bf09eb475dbfc",
        "dk17": "17db1f7c99adc63e9874cd6629c593208c416e9f2b5a63e565f932e4034a8ef4",
        "dk27": "dcaecd99dba81d0573e5927ea888e795f785e8eef3608b87513068b2e9baf9a7",
        "dk512": "5860ad33e5d9b72f3d7dd050133b3df3b49ea1e738a3295c4385b52a3dd8319a",
        "ex2": "9a882014a1866152bd91669dc69eeb9b7cc8a95fabbd9c1153152042209130b1",
        "ex3": "284f3dfd92d64b6650eb832e64c16d0ca0acc8c6aa1c007c726cef900226f834",
        "ex5": "6f0837740162643cd5ed322b47da59639c2488290b0c8e23a6ec35cfea336f0b",
        "ex7": "5d8abd6889df46fc49330fe7f2efb9ad46dc0b352fdadd088882c5a8e97a793b",
        "lion": "8d38b969d7b1388194706e3879003e57c9def7cbccf13137bb2cd30fc2207ba8",
        "lion9": "b24c79119b625d2e275822d583c007195fc028d95f7a96e821358bb2539d44fb",
        "mc": "4ad8efacf682c3e6f511007d958fd49ab23297ee5e087f23559c112372d2d2b5",
        "shiftreg": "2a6e641a5a2d20717b5f9f13388d13ef93bb11369525a6dcf05466d2e88d79e9",
        "tav": "2f80aa25ff07a9dde57cfe626cc957c9850d22dd2d37d40b31b11d368caacbb7",
        "train11": "f9da75919285426329bc5143f8c32e4e210f28d349dde3a94f21e45ef1ba98fc",
    },
    "incidental": {
        "bbtas": "aad75f5a86e89447e528da7050d4a0dc9c3787e8b9043c1e564c518da48a1c31",
        "beecount": "10da59842b28486ad60c906c92c63a13f998ca71b59eedb09bdb188be479cde0",
        "dk14": "39a598acdbcd166da8b8d8d6abb15399a0d1d9528129cda949ccb78b8a58bdc0",
        "dk15": "e5879ff2661f939aef29b78ce7a0e43e763d98daa051a6c1d17daedb9d005726",
        "dk16": "7be784891de93d5b385e288d90511d9d7552d7791fb7278920951a914287281b",
        "dk17": "333298ec97f465ed40b560a631419df7422c277093979a3dede3b2c7cee4d059",
        "dk27": "7135cb089bf5f0fec93a1139df30aed3f7ad45ff46685557d6ec7014b77c0c13",
        "dk512": "70463a9ef660bf7864cdcf2c5b98353089f274aa16c77b54ac6d9ef86ee201f1",
        "ex2": "19b1e14f57178740fd84715deabf0993c166197c371a2c3d93a7a330bbbca86a",
        "ex3": "584b3f7651063e504cc1c35f8b895d17a08f0b0b8c16c2567efa1aaed3eca8ba",
        "ex5": "ce4085356fe67bb550e29208d6c25b3557c90d00027bee3f596f0fa87a31cb3f",
        "ex7": "c08061990ee8397b1edfbad73ce7ecebfc3e0cdf51b2e62ad1330b798fcef610",
        "lion": "e0b8facf0c788acf22ee894ec0304e368fc46e66996a840ff357296652004ff4",
        "lion9": "bb3bb17489949420716441b8857bcceab83c73d9b2a39656b91fe666bd02538c",
        "mc": "25b9d093ab4fa0400934dbc0621d646bd1767a1d9f829639ae63e58b2b8d7f39",
        "shiftreg": "29fc950ae2cccbc4a11b65854be18f704cee8f752f76f38f0ebd235d1863eff7",
        "tav": "307e5a765234e0d8f2838ed48c2cee71cb0d15c85e100b05402a0ff8afac0d78",
        "train11": "2af0c446a767cddae3a36cb7c9379e6e944f40fbb711071d94c9e98792c76b70",
    },
    "transfer0": {
        "bbtas": "6a2ad9dad5326336a593408069e1f4a34cb7967af942cd33503a7045d582bc74",
        "beecount": "06b9a5e4b5a3b868fb19876490055d09855c992bb0c9937e206aa977b192d6e3",
        "dk14": "063aefa7faa471ef53092d89835fbee31dbe760432d19005b056fa7ffdd20ae2",
        "dk15": "2daf851f3b677ff9141d21e733c3955944d83b898a18e81c0a62fb3e2ff14299",
        "dk16": "92619fa00e4e65f6b7557f7660da786a6254e73657cb6bb8a660dc60cb5b1d0b",
        "dk17": "5e730db47499397efd91266262ee3194b0e5867343e79b9a3fe261f0b81b7dee",
        "dk27": "7cd2eaef954596c76afb6fd5fa8316473ecc9dc95a6f1182863b8e0110767384",
        "dk512": "bd35ff2a0c1f3b875085fb668099b9681e4e5de05624b0c33ca9a0c5de682cea",
        "ex2": "c543496ee7f3b144a386bd7f485056b284e2baa9a5fb4e073d4325f8ad902fe5",
        "ex3": "16bb553e7c32b4e5250c382262f7fdf8a06b9767d3f685fd1f182da4cb12c8d6",
        "ex5": "077fcdaa5655146382b616cdeaaec7892298d56cb414bdeabcf9074cc3f629a2",
        "ex7": "cdf6d417f38b3af94a4729cc08d0db0925fcc3749428ea9a4bd557da1d7b01df",
        "lion": "db676d0a4035326c73c9764a52390872f6c61571e8e12bb2f6cc37576bfe7cf2",
        "lion9": "8b3d22ea1b8e164414712b179b3683668343e97c683014fb61a438e73de2488c",
        "mc": "ba17681fe03fbaaaf053980725407bef9290ff56129afb9bb071317fefc14b71",
        "shiftreg": "7b698a38729818d74b916a207d9c37296ea2be2e3567a792f7a008ff5c2ce62e",
        "tav": "414f946dc9c57204c2eeaddac5bee62284caea9c3388bdd2ba7c47adc3ab1c75",
        "train11": "d685837e6fa46a847d704389a2051e7961fb4c1dff1e3da9bb36e4dee8d8d6f2",
    },
    "uio1": {
        "bbtas": "288656f2ae9c487f6c6c23e1abe36b30df4684df35ee2104ab61ebfc01bb3c45",
        "beecount": "c0058669131e13004e3444e5e791a894a4aaa168e7266920959f208239f2c606",
        "dk14": "5fbe8d0c8c7345ecf9fa45c6affdb6c296e20b3c796238e222f3c09d60607e7f",
        "dk15": "93eaa98f35f95748ca12f293463c89fc2833867af505176c13234aef89d02240",
        "dk16": "4247eba36c3b7111baa561d610fe4fd0b0a07aa0d9c41966a8e2e4206554212a",
        "dk17": "35b00f35ab1c2cc8778ff7da3e1bac022c069bf99ec56961abb68d77b20197bd",
        "dk27": "a1de1b483ba7f60c006775cf6201b594cce95d52b947c3f8a488924ad93d542d",
        "dk512": "ee0836b7fa9ecbbb051b65e0e2ea17fad94207c06fe1cadefee4bec31de0f2a5",
        "ex2": "e0dbbb78f5957cdecffa7a0c5fdf12fc0ff389153f64605a0264528a0a73ee9a",
        "ex3": "345028b67ee1b6413f07e04eafaf6c33d21f44842de43d0b9df345af74c0789d",
        "ex5": "e3de5c26284afdb2cb194f0369da50840ac40bdbfbb52aa61d1641528564422a",
        "ex7": "129f608fe3c019da6d313b08787726f1dcc3379b93fcdc87d987abc62b38044c",
        "lion": "a05ad0182af38efa837dbbde124947bf36696a5cec5ac8449cc76d77b69ff76c",
        "lion9": "8b78e4ef5e830afb5a4bf4e869427a81e301c8aaad4b1c8aa81e95ac7ee7358d",
        "mc": "a8de450051ad5e1c1b87975acd8063046eb97d53cfd47dd0b36c07d50d370d66",
        "shiftreg": "ade7a82b353cce9d05108898b3ab79f0496a573debfd7a9448bdb48b88b52542",
        "tav": "d45c31693aab3ffda56b89b0eaf36c1bea875188e6e730d51d4685a028e48002",
        "train11": "130f9a3c3811f33769d7a5eaa70b4e4137ba01ed21aacdea046cf36e40d1661c",
    },
}

EXTENSION_CONFIGS = {
    "transfer2": GeneratorConfig(max_transfer_length=2),
    "partial": GeneratorConfig(use_partial_uio=True),
    "incidental": GeneratorConfig(credit_incidental=True),
    "transfer0": GeneratorConfig(max_transfer_length=0),  # Table 8
    "uio1": GeneratorConfig(max_uio_length=1),  # Table 9's shortest bound
}

#: The dimensions of dvram, fetch, log and rie, the machines the
#: test-generation benchmark runs: (inputs, states, core states, outputs,
#: cubes per state).  Written out so that the pins below do not move with
#: the registry.
HELD_OUT_DIMENSIONS = {
    "dvram": (8, 64, 50, 8, 10),
    "fetch": (9, 32, 26, 8, 11),
    "log": (9, 32, 17, 4, 11),
    "rie": (9, 32, 29, 6, 11),
}

#: Digests of the default configuration on two unseen synthetic machines
#: per dimension, ``heldout-<label>-<copy>``.  Most of their tests are
#: length-1 tests that end at a UIO landing with no untested successor.
PINNED_HELDOUT = {
    "heldout-dvram-0": "156b111ad989b16cf5159b9850f214001c264be1e549cd75ab02312a311ae1a6",
    "heldout-dvram-1": "c98332747759418f5a84261cd6d0ddaee6eea814c55e62dda1838d08c24609df",
    "heldout-fetch-0": "9a6ee46f0538c90e87146f006eba3a789d921db3b0e13cc354223648823ec480",
    "heldout-fetch-1": "6f5e37d0ec8a44e79079b8205e67261d38ae9fba8c523da12ae77c475a1bc56e",
    "heldout-log-0": "1976f0581ba0d5a5b01ff6090ff1bc50c761d9f94bb90017b9692d870f0bb9cc",
    "heldout-log-1": "d10edfeef30d77e271d191423fac240e9deaf92fe44f07d3b969eff580578c0e",
    "heldout-rie-0": "1534e7e47cfaac0b785a621a1a60020bb2deac96b5131b3f19782caf7c4f2ae9",
    "heldout-rie-1": "b62eff6310b78793bc2bdac3cdb99488a99f2685f540b8603edbf22163d822b5",
}


class TestPinnedGeneration:
    """Byte-for-byte output of the procedure, pinned before the chaining
    loops moved from numpy arrays to Python rows; any moved tie-break
    (scan order, transfer choice, UIO choice) changes a digest."""

    def test_pins_cover_the_registry(self):
        assert sorted(PINNED_DEFAULT) == sorted(circuit_names())
        for pins in PINNED_EXTENSIONS.values():
            assert sorted(pins) == SMALL

    @pytest.mark.parametrize("name", sorted(PINNED_DEFAULT))
    def test_default_config(self, name):
        result = generate_tests(load_circuit(name))
        assert _generation_digest(result) == PINNED_DEFAULT[name]

    @pytest.mark.parametrize("name", sorted(PINNED_HELDOUT))
    def test_held_out_machines(self, name):
        label = name.split("-")[1]
        table = synthetic_machine(name, *HELD_OUT_DIMENSIONS[label]).to_state_table()
        assert _generation_digest(generate_tests(table)) == PINNED_HELDOUT[name]

    @pytest.mark.parametrize("label", sorted(EXTENSION_CONFIGS))
    def test_extension_branches(self, label):
        config = EXTENSION_CONFIGS[label]
        digests = {
            name: _generation_digest(generate_tests(load_circuit(name), config))
            for name in SMALL
        }
        assert digests == PINNED_EXTENSIONS[label]
