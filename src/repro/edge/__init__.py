"""Edge devices: field world, sensors, drones, robotic cars, swarms."""

from .car import RoboticCar
from .device import EdgeDevice
from .drone import Drone
from .field import FieldWorld, Person
from .sensors import Camera, FrameBatch, SensorReading, SensorSuite
from .swarm import Swarm
from .engine import SwarmEngine

__all__ = [
    "SwarmEngine",
    "EdgeDevice",
    "Drone",
    "RoboticCar",
    "FieldWorld",
    "Person",
    "Camera",
    "FrameBatch",
    "SensorReading",
    "SensorSuite",
    "Swarm",
]
