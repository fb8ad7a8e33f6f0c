from dslake.cyclone.rng import SplitMix64


def test_splitmix_reference_sequence():
    # published SplitMix64 outputs for seed 1234567
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]
